package kvcache

import "testing"

// Room is the contract the engine's decode lane builds on: nonzero exactly
// when an append needs no block-level work, and Commit of up to Room
// tokens is that append. Past Room, Commit needs blocks claimed with
// ClaimCounted (see TestSlotCrossingsPublishLikeAppend).
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

// A transplanted sequence (MoveTo, then SetPrefix) decoded the way the
// engine's lane slot decodes — tokens counted against Room, a crossing
// with a counted tail claimed from the pool (ClaimCounted), any other
// crossing written back and appended — must leave its pool exactly where
// one Append per token leaves a twin: the same counters and sharing stats
// after every token, and, once Commit books the claimed blocks,
// the same published blocks, the same prefix hit for a new sequence and
// the same cache after both free. The transplant's publish scan lags, so
// it has no counted tail until its first Append publishes the prefix,
// and Commit refuses a crossing before then.
func TestSlotCrossingsPublishLikeAppend(t *testing.T) {
	const bt = 16
	pfx := Prefix{ID: "p", Tokens: 100}
	transplant := func() (*Pool, *Seq) {
		src, dst := NewPool(64, bt), NewPool(64, bt)
		src.EnableSharing(EvictLRU)
		dst.EnableSharing(EvictLRU)
		s, err := src.NewSeq(150)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := s.MoveTo(dst)
		if err != nil {
			t.Fatal(err)
		}
		moved.SetPrefix(pfx)
		return dst, moved
	}
	pa, a := transplant() // the slot's
	pb, b := transplant() // one Append per token
	if a.Room() != 0 || a.CountedTail() {
		t.Fatalf("transplant: room %d, counted tail %v; its publish scan lags", a.Room(), a.CountedTail())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Commit crossed on a sequence with no counted tail")
			}
		}()
		a.Commit(1)
	}()
	pending, claims, appends := 0, 0, 0
	room, counted := a.Room(), a.CountedTail()
	for tok := 0; tok < 100; tok++ {
		switch {
		case room >= 1:
		case counted:
			pa.ClaimCounted(1)
			claims++
			room = bt
		default:
			a.Commit(pending)
			pending = 0
			if err := a.Append(1); err != nil {
				t.Fatal(err)
			}
			appends++
			room, counted = a.Room(), a.CountedTail()
			if err := b.Append(1); err != nil {
				t.Fatal(err)
			}
			continue
		}
		room--
		pending++
		if err := b.Append(1); err != nil {
			t.Fatal(err)
		}
		if pa.UsedBlocks() != pb.UsedBlocks() || pa.FreeBlocks() != pb.FreeBlocks() || pa.Stats() != pb.Stats() {
			t.Fatalf("token %d: slot pool used %d free %d %+v, Append pool used %d free %d %+v", tok,
				pa.UsedBlocks(), pa.FreeBlocks(), pa.Stats(), pb.UsedBlocks(), pb.FreeBlocks(), pb.Stats())
		}
	}
	a.Commit(pending)
	if appends != 1 || claims == 0 {
		t.Fatalf("%d appends and %d claimed crossings; want the publishing append, then claims", appends, claims)
	}
	if a.Tokens() != b.Tokens() || a.Blocks() != b.Blocks() || a.Room() != b.Room() ||
		a.SharedBlocks() != b.SharedBlocks() || a.SharedBlocks() == 0 || pa.Stats() != pb.Stats() {
		t.Fatalf("booked: tokens %d/%d blocks %d/%d room %d/%d shared %d/%d stats %+v/%+v",
			a.Tokens(), b.Tokens(), a.Blocks(), b.Blocks(), a.Room(), b.Room(),
			a.SharedBlocks(), b.SharedBlocks(), pa.Stats(), pb.Stats())
	}
	_, hitA, _ := pa.NewSeqCached(pfx)
	_, hitB, _ := pb.NewSeqCached(pfx)
	if hitA != hitB || hitA == 0 {
		t.Fatalf("prefix hits %d and %d", hitA, hitB)
	}
	a.Free()
	b.Free()
	if pa.CachedBlocks() != pb.CachedBlocks() || pa.UsedBlocks() != pb.UsedBlocks() ||
		pa.CachedPrefixTokens(pfx) != pb.CachedPrefixTokens(pfx) {
		t.Fatalf("after free: cached %d/%d used %d/%d", pa.CachedBlocks(), pb.CachedBlocks(),
			pa.UsedBlocks(), pb.UsedBlocks())
	}
	for _, p := range []*Pool{pa, pb} {
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
