package kvcache

import "testing"

// Room is the contract the engine's decode lane builds on: nonzero exactly
// when an append needs no block-level work, and Commit of up to Room
// tokens is that append.
func TestRoomAndCommit(t *testing.T) {
	p := NewPool(10, 64)
	s, err := p.NewSeq(100) // the tail block holds 36 of 64
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Room(); got != 28 {
		t.Fatalf("room = %d, want 28", got)
	}
	used := p.UsedBlocks()
	s.Commit(28)
	if s.Tokens() != 128 || s.Blocks() != 2 || s.Room() != 0 || p.UsedBlocks() != used {
		t.Fatalf("after commit: tokens %d blocks %d room %d used %d",
			s.Tokens(), s.Blocks(), s.Room(), p.UsedBlocks())
	}
	if err := s.Append(1); err != nil { // a full tail: the next token opens a block
		t.Fatal(err)
	}
	if s.Room() != 63 {
		t.Fatalf("room after crossing = %d, want 63", s.Room())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("commit past room did not panic")
			}
		}()
		s.Commit(64)
	}()
	if err := s.SwapOut(); err != nil {
		t.Fatal(err)
	}
	if s.Room() != 0 {
		t.Fatal("swapped-out sequence reports room")
	}
	if err := s.SwapIn(); err != nil {
		t.Fatal(err)
	}
	if s.Room() != 63 {
		t.Fatalf("room after swap-in = %d, want 63", s.Room())
	}
	s.Free()
	if s.Room() != 0 {
		t.Fatal("released sequence reports room")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Under prefix sharing the tail has room only once appending to it can
// neither publish, unpublish nor copy a block.
func TestRoomUnderSharing(t *testing.T) {
	p := newSharedPool(t, 32, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 100} // the boundary is 36 tokens into block 1
	s, _, _ := p.NewSeqCached(pfx)
	if err := s.Append(80); err != nil {
		t.Fatal(err)
	}
	// Block 1 holds 16 prefix tokens: the next append may complete it.
	if s.Room() != 0 {
		t.Fatalf("room inside the prefix = %d, want 0", s.Room())
	}
	if err := s.Append(20); err != nil {
		t.Fatal(err)
	}
	// Block 1 now ends exactly at the prefix and is published.
	if s.SharedBlocks() != 2 || s.Room() != 0 {
		t.Fatalf("published boundary: shared %d room %d", s.SharedBlocks(), s.Room())
	}
	if err := s.Append(1); err != nil { // unpublishes the sole-held boundary
		t.Fatal(err)
	}
	if got := s.Room(); got != 27 {
		t.Fatalf("room past the prefix = %d, want 27", got)
	}
	s.Free()

	// A boundary block another sequence also holds needs copy-on-write.
	b1, _, _ := p.NewSeqCached(pfx)
	b2, _, _ := p.NewSeqCached(pfx)
	if b1.Room() != 0 || b2.Room() != 0 {
		t.Fatal("shared boundary block reports room")
	}
	b1.Free()
	b2.Free()

	// A transplanted copy publishes its prefix blocks on its next append,
	// so it has no room until then.
	moved, err := p.NewSeq(130)
	if err != nil {
		t.Fatal(err)
	}
	moved.SetPrefix(Prefix{ID: "d", Tokens: 64})
	if moved.Room() != 0 {
		t.Fatalf("unpublished transplant reports room %d", moved.Room())
	}
	if err := moved.Append(1); err != nil {
		t.Fatal(err)
	}
	if moved.SharedBlocks() != 1 || moved.Room() != 61 {
		t.Fatalf("after publishing: shared %d room %d", moved.SharedBlocks(), moved.Room())
	}
	moved.Free()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Committing within Room leaves the sequence and its pool exactly where
// Append would have: same tokens, blocks, published blocks, pool counts
// and sharing stats at every step, and the same cache after both free.
func TestCommitMatchesAppend(t *testing.T) {
	for _, sharing := range []bool{false, true} {
		pa, pb := NewPool(64, 16), NewPool(64, 16)
		if sharing {
			pa.EnableSharing(EvictLRU)
			pb.EnableSharing(EvictLRU)
		}
		pfx := Prefix{ID: "x", Tokens: 40}
		a, _, _ := pa.NewSeqCached(pfx)
		b, _, _ := pb.NewSeqCached(pfx)
		committed := 0
		for step := 0; step < 200; step++ {
			n := 1 + step%5
			if err := a.Append(n); err != nil {
				t.Fatal(err)
			}
			if n <= b.Room() {
				b.Commit(n)
				committed++
			} else if err := b.Append(n); err != nil {
				t.Fatal(err)
			}
			if a.Tokens() != b.Tokens() || a.Blocks() != b.Blocks() ||
				a.SharedBlocks() != b.SharedBlocks() || pa.UsedBlocks() != pb.UsedBlocks() ||
				pa.Stats() != pb.Stats() {
				t.Fatalf("sharing=%v step %d: append and commit diverged", sharing, step)
			}
		}
		if committed == 0 {
			t.Fatalf("sharing=%v: Room never admitted a commit", sharing)
		}
		a.Free()
		b.Free()
		if pa.CachedBlocks() != pb.CachedBlocks() || pa.Stats() != pb.Stats() ||
			pa.CachedPrefixTokens(pfx) != pb.CachedPrefixTokens(pfx) {
			t.Fatalf("sharing=%v: pools differ after free", sharing)
		}
		if err := pb.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
