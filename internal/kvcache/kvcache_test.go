package kvcache

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPoolBasics(t *testing.T) {
	p := NewPool(100, 64)
	if p.TotalBlocks() != 100 || p.FreeBlocks() != 100 || p.UsedBlocks() != 0 {
		t.Fatal("fresh pool accounting wrong")
	}
	if p.BlockTokens() != 64 {
		t.Fatal("block tokens")
	}
	if p.Utilization() != 0 {
		t.Fatal("fresh pool utilization")
	}
}

func TestBlocksForTokens(t *testing.T) {
	p := NewPool(10, 64)
	cases := []struct{ tokens, blocks int }{
		{0, 0}, {-5, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, c := range cases {
		if got := p.BlocksForTokens(c.tokens); got != c.blocks {
			t.Errorf("BlocksForTokens(%d) = %d, want %d", c.tokens, got, c.blocks)
		}
	}
}

func TestSeqLifecycle(t *testing.T) {
	p := NewPool(10, 64)
	s, err := p.NewSeq(100) // 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	if s.Tokens() != 100 || s.Blocks() != 2 {
		t.Fatalf("tokens=%d blocks=%d", s.Tokens(), s.Blocks())
	}
	if p.FreeBlocks() != 8 || p.LiveSequences() != 1 {
		t.Fatal("pool accounting after alloc")
	}
	// Appending within the last block takes no new block.
	if err := s.Append(28); err != nil { // 128 tokens, still 2 blocks
		t.Fatal(err)
	}
	if s.Blocks() != 2 {
		t.Fatalf("blocks = %d after append within block", s.Blocks())
	}
	if err := s.Append(1); err != nil { // 129 tokens -> 3 blocks
		t.Fatal(err)
	}
	if s.Blocks() != 3 || p.FreeBlocks() != 7 {
		t.Fatal("append across block boundary")
	}
	s.Free()
	if p.FreeBlocks() != 10 || p.LiveSequences() != 0 {
		t.Fatal("free did not return blocks")
	}
	// The freed Seq is back in the pool for reuse, so a second Free is a
	// caller's bug and panics without touching the accounting.
	mustPanic(t, "second Free", s.Free)
	if p.FreeBlocks() != 10 || p.LiveSequences() != 0 {
		t.Fatal("double free corrupted pool")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A freed Seq is the next one allocated, reset to its new identity: no
// token count, block, prefix, swap or release state carries over.
func TestFreedSeqIsReused(t *testing.T) {
	p := newSharedPool(t, 16, 64, EvictLRU)
	a, _ := prefill(t, p, Prefix{ID: "c", Tokens: 100}, 300)
	if err := a.SwapOut(); err != nil {
		t.Fatal(err)
	}
	a.Free()
	b, err := p.NewSeq(10)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("NewSeq did not reuse the freed Seq")
	}
	if b.Tokens() != 10 || b.Blocks() != 1 || b.Swapped() || b.Prefix() != (Prefix{}) || b.SharedBlocks() != 0 {
		t.Fatalf("reused seq: tokens=%d blocks=%d swapped=%v prefix=%v shared=%d",
			b.Tokens(), b.Blocks(), b.Swapped(), b.Prefix(), b.SharedBlocks())
	}
	b.Free()
	pfx := Prefix{ID: "c", Tokens: 100}
	want := p.CachedPrefixTokens(pfx) // the full first block published before the swap-out
	c, hit, err := p.NewSeqCached(pfx)
	if err != nil {
		t.Fatal(err)
	}
	if c != a || want != 64 || hit != want || c.Tokens() != hit || c.Prefix() != pfx {
		t.Fatalf("reused cached seq: same=%v hit=%d tokens=%d prefix=%v", c == a, hit, c.Tokens(), c.Prefix())
	}
	if p.LiveSequences() != 1 {
		t.Fatalf("live = %d", p.LiveSequences())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Free()
}

// A retired pool drops its recycled structs and recycles nothing freed
// later, while its accounting, stats and cached blocks stay as they were.
func TestRetiredPoolRecyclesNothing(t *testing.T) {
	p := newSharedPool(t, 16, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 100}
	a, _ := prefill(t, p, pfx, 300)
	b, _ := prefill(t, p, pfx, 300)
	a.Free()
	stats, cached := p.Stats(), p.CachedBlocks()
	p.Retire()
	if len(p.seqFree)+len(p.blockFree)+len(p.sliceFree)+len(p.blockSlab) != 0 {
		t.Fatalf("retired pool holds %d seqs, %d blocks, %d slices, %d slab blocks",
			len(p.seqFree), len(p.blockFree), len(p.sliceFree), len(p.blockSlab))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.Free()
	if len(p.seqFree)+len(p.blockFree)+len(p.sliceFree) != 0 {
		t.Fatal("retired pool recycled a freed sequence")
	}
	if p.Stats() != stats || p.CachedBlocks() < cached || p.LiveSequences() != 0 || p.UsedBlocks() != 0 {
		t.Fatalf("retired pool accounting: stats %+v/%+v cached %d/%d live %d used %d",
			p.Stats(), stats, p.CachedBlocks(), cached, p.LiveSequences(), p.UsedBlocks())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionFailure(t *testing.T) {
	p := NewPool(2, 64)
	if _, err := p.NewSeq(129); err == nil {
		t.Error("over-allocation accepted")
	}
	if !p.CanFit(128) || p.CanFit(129) {
		t.Error("CanFit wrong")
	}
	if _, err := p.NewSeq(-1); err == nil {
		t.Error("negative tokens accepted")
	}
}

func TestAppendExhaustion(t *testing.T) {
	p := NewPool(2, 64)
	s, err := p.NewSeq(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1); err == nil {
		t.Error("append beyond pool accepted")
	}
	// Failed append must not corrupt state.
	if s.Tokens() != 128 || s.Blocks() != 2 || p.FreeBlocks() != 0 {
		t.Error("failed append mutated state")
	}
	if err := s.Append(-1); err == nil {
		t.Error("negative append accepted")
	}
}

func TestSwapOutIn(t *testing.T) {
	p := NewPool(4, 64)
	s, _ := p.NewSeq(256) // all 4 blocks
	if err := s.SwapOut(); err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != 0 || !s.Swapped() || p.FreeBlocks() != 4 {
		t.Fatal("swap-out accounting")
	}
	if s.Tokens() != 256 {
		t.Fatal("swap-out lost token state")
	}
	if err := s.SwapOut(); err == nil {
		t.Error("double swap-out accepted")
	}
	if err := s.Append(1); err == nil {
		t.Error("append while swapped accepted")
	}
	// Another request takes the memory; swap-in must fail.
	other, _ := p.NewSeq(64)
	if err := s.SwapIn(); err == nil {
		t.Error("swap-in without memory accepted")
	}
	other.Free()
	if err := s.SwapIn(); err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != 4 || s.Swapped() {
		t.Fatal("swap-in accounting")
	}
	if err := s.SwapIn(); err == nil {
		t.Error("double swap-in accepted")
	}
}

func TestFreeWhileSwappedDoesNotReturnBlocks(t *testing.T) {
	p := NewPool(4, 64)
	s, _ := p.NewSeq(256)
	s.SwapOut()
	s.Free()
	if p.FreeBlocks() != 4 {
		t.Fatalf("free blocks = %d, want 4", p.FreeBlocks())
	}
	if p.LiveSequences() != 0 {
		t.Fatal("live sequences after free")
	}
}

func TestMoveTo(t *testing.T) {
	src := NewPool(4, 64)
	dst := NewPool(4, 64)
	s, _ := src.NewSeq(200)
	moved, err := s.MoveTo(dst)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Tokens() != 200 {
		t.Fatal("moved tokens")
	}
	if src.FreeBlocks() != 4 || src.LiveSequences() != 0 {
		t.Fatal("source not freed")
	}
	if dst.UsedBlocks() != 4 || dst.LiveSequences() != 1 {
		t.Fatal("destination not allocated")
	}
}

func TestMoveToFullDestinationFailsCleanly(t *testing.T) {
	src := NewPool(4, 64)
	dst := NewPool(1, 64)
	s, _ := src.NewSeq(200)
	if _, err := s.MoveTo(dst); err == nil {
		t.Fatal("move into full pool accepted")
	}
	// Source must be untouched.
	if s.Tokens() != 200 || src.UsedBlocks() != 4 {
		t.Fatal("failed move mutated source")
	}
}

func TestReleasedSeqOperations(t *testing.T) {
	p := NewPool(4, 64)
	s, _ := p.NewSeq(64)
	s.Free()
	if err := s.Append(1); err == nil {
		t.Error("append on released seq accepted")
	}
	if err := s.SwapOut(); err == nil {
		t.Error("swap-out on released seq accepted")
	}
	if err := s.SwapIn(); err == nil {
		t.Error("swap-in on released seq accepted")
	}
	if _, err := s.MoveTo(NewPool(4, 64)); err == nil {
		t.Error("move on released seq accepted")
	}
}

func TestGrowShrink(t *testing.T) {
	p := NewPool(10, 64)
	s, _ := p.NewSeq(640) // all 10
	p.AddBlocks(5)
	if p.TotalBlocks() != 15 || p.FreeBlocks() != 5 {
		t.Fatal("grow accounting")
	}
	if _, err := p.RemoveBlocksEvicting(6); err == nil {
		t.Error("removing in-use blocks accepted")
	}
	if _, err := p.RemoveBlocksEvicting(5); err != nil {
		t.Fatal(err)
	}
	if p.TotalBlocks() != 10 || p.FreeBlocks() != 0 {
		t.Fatal("shrink accounting")
	}
	if _, err := p.RemoveBlocksEvicting(-1); err == nil {
		t.Error("negative remove accepted")
	}
	s.Free()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	p := NewPool(10, 64)
	s, _ := p.NewSeq(320) // 5 blocks
	if got := p.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v", got)
	}
	s.Free()
	empty := NewPool(0, 64)
	if empty.Utilization() != 0 {
		t.Fatal("empty pool utilization")
	}
}

func TestBadPoolPanics(t *testing.T) {
	for _, c := range []struct{ blocks, tokens int }{{-1, 64}, {10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPool(%d,%d) did not panic", c.blocks, c.tokens)
				}
			}()
			NewPool(c.blocks, c.tokens)
		}()
	}
	p := NewPool(1, 64)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddBlocks(-1) did not panic")
			}
		}()
		p.AddBlocks(-1)
	}()
}

// Property: any sequence of alloc/append/swap/free operations conserves
// blocks and never lets free exceed total.
func TestPropertyPoolConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewPool(64, 16)
		var seqs []*Seq
		for _, op := range ops {
			switch op % 6 {
			case 0:
				if s, err := p.NewSeq(int(op % 512)); err == nil {
					seqs = append(seqs, s)
				}
			case 1:
				if len(seqs) > 0 {
					seqs[int(op)%len(seqs)].Append(int(op % 64))
				}
			case 2:
				if len(seqs) > 0 {
					seqs[int(op)%len(seqs)].SwapOut()
				}
			case 3:
				if len(seqs) > 0 {
					seqs[int(op)%len(seqs)].SwapIn()
				}
			case 4:
				if len(seqs) > 0 {
					i := int(op) % len(seqs)
					seqs[i].Free()
					seqs = append(seqs[:i], seqs[i+1:]...)
				}
			case 5:
				p.AddBlocks(int(op % 8))
			}
			if err := p.CheckInvariants(); err != nil {
				return false
			}
		}
		for _, s := range seqs {
			s.Free()
		}
		// After freeing everything, used blocks must be zero.
		return p.UsedBlocks() == 0 && p.LiveSequences() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- Prefix sharing, caching, and copy-on-write -------------------------

// newSharedPool is a sharing-enabled pool for the prefix tests.
func newSharedPool(t *testing.T, blocks, bt int, policy EvictPolicy) *Pool {
	t.Helper()
	p := NewPool(blocks, bt)
	p.EnableSharing(policy)
	return p
}

// prefill simulates chunked prefill: allocate an empty cached seq and append
// the remaining prompt. Returns the seq and the cached token count.
func prefill(t *testing.T, p *Pool, pfx Prefix, prompt int) (*Seq, int) {
	t.Helper()
	s, cached, err := p.NewSeqCached(pfx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(prompt - cached); err != nil {
		t.Fatal(err)
	}
	return s, cached
}

func TestPrefixSharingColdThenHit(t *testing.T) {
	p := newSharedPool(t, 32, 64, EvictLRU)
	pfx := Prefix{ID: "agent", Tokens: 150} // 2 full blocks + 22-token boundary
	a, cached := prefill(t, p, pfx, 300)
	if cached != 0 {
		t.Fatalf("cold lookup served %d tokens", cached)
	}
	// Full in-prefix blocks publish during prefill.
	if a.SharedBlocks() != 2 {
		t.Fatalf("shared blocks during life = %d, want 2", a.SharedBlocks())
	}
	a.Free()
	// The boundary block is trimmed and cached alongside the full ones.
	if got := p.CachedBlocks(); got != 3 {
		t.Fatalf("cached blocks after free = %d, want 3", got)
	}
	b, cached := prefill(t, p, pfx, 300)
	if cached != 150 {
		t.Fatalf("warm lookup served %d tokens, want 150", cached)
	}
	if st := p.Stats(); st.Hits != 1 || st.HitTokens != 150 {
		t.Fatalf("stats = %+v", st)
	}
	// b holds 3 shared refs plus private blocks for the remaining 150
	// tokens: tokens 150..300 continue in the boundary block? No — the
	// boundary block was matched partially filled, so b's first append
	// diverges in it. refs==1 on it (cache released its slot), so it is
	// unpublished and written in place.
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.Free()
	if p.LiveSequences() != 0 {
		t.Fatal("sequence leak")
	}
}

func TestDivergenceUnpublishesSoleHolderBoundary(t *testing.T) {
	p := newSharedPool(t, 32, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 100} // boundary at 36 tokens into block 1
	a, _ := prefill(t, p, pfx, 200)
	a.Free()
	b, cached := prefill(t, p, pfx, 200)
	if cached != 100 {
		t.Fatalf("cached = %d, want 100", cached)
	}
	// b appended past the boundary as sole holder: block 1 must have left
	// the index, so a third sequence only matches the full block.
	if got := p.CachedPrefixTokens(pfx); got != 64 {
		t.Fatalf("probe after divergence = %d, want 64", got)
	}
	if st := p.Stats(); st.CoWCopies != 0 {
		t.Fatalf("unexpected CoW: %+v", st)
	}
	b.Free()
}

func TestCopyOnWriteOnSharedBoundary(t *testing.T) {
	p := newSharedPool(t, 32, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 100}
	a, _ := prefill(t, p, pfx, 200)
	a.Free()
	// Two sequences match the chain concurrently; the boundary block now
	// has two holders.
	b1, c1, _ := p.NewSeqCached(pfx)
	b2, c2, _ := p.NewSeqCached(pfx)
	if c1 != 100 || c2 != 100 {
		t.Fatalf("cached = %d/%d, want 100/100", c1, c2)
	}
	used := p.UsedBlocks()
	if used != 2 {
		t.Fatalf("used = %d, want 2 (shared chain counted once)", used)
	}
	// b1 diverges first: the boundary block is shared (refs=2) -> CoW.
	if err := b1.Append(50); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.CoWCopies != 1 {
		t.Fatalf("CoW copies = %d, want 1", st.CoWCopies)
	}
	// The published boundary block survives for b2, which diverges as the
	// sole remaining holder (no second copy).
	if err := b2.Append(50); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.CoWCopies != 1 {
		t.Fatalf("CoW copies = %d after sole-holder divergence", st.CoWCopies)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b1.Free()
	b2.Free()
	if p.LiveSequences() != 0 || p.UsedBlocks() != 0 {
		t.Fatal("leak after frees")
	}
}

func TestCachedBlocksEvictedBeforeAllocationFails(t *testing.T) {
	p := newSharedPool(t, 4, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 128}
	a, _ := prefill(t, p, pfx, 128+64) // 3 blocks: 2 shared + 1 private
	a.Free()                           // 2 cached, 2 free
	if p.CachedBlocks() != 2 || p.FreeBlocks() != 2 {
		t.Fatalf("cached=%d free=%d", p.CachedBlocks(), p.FreeBlocks())
	}
	// A 4-block private allocation must evict both cached blocks rather
	// than fail.
	s, err := p.NewSeq(256)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if p.CachedPrefixTokens(pfx) != 0 {
		t.Fatal("evicted chain still matches")
	}
	s.Free()
}

func TestEvictionOrderLRUvsFIFO(t *testing.T) {
	run := func(policy EvictPolicy) []int {
		pool := NewPool(8, 64)
		pool.EnableSharing(policy)
		// Cache chain X (1 block), then chain Y (1 block), then re-touch X
		// (match + free) so recency differs from first-cached order.
		x := Prefix{ID: "x", Tokens: 64}
		y := Prefix{ID: "y", Tokens: 64}
		sx, _, _ := pool.NewSeqCached(x)
		sx.Append(64)
		sx.Free()
		sy, _, _ := pool.NewSeqCached(y)
		sy.Append(64)
		sy.Free()
		sx2, cached, _ := pool.NewSeqCached(x)
		if cached != 64 {
			t.Fatalf("expected x hit, got %d", cached)
		}
		sx2.Free()
		// Force one eviction: take every remaining block plus one.
		s, err := pool.NewSeq(64 * 7)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Free()
		// Report which chains survived: [x, y].
		return []int{pool.CachedPrefixTokens(x), pool.CachedPrefixTokens(y)}
	}
	lru := run(EvictLRU)
	if lru[0] != 64 || lru[1] != 0 {
		t.Fatalf("LRU evicted wrong block: x=%d y=%d (want y evicted)", lru[0], lru[1])
	}
	fifo := run(EvictFIFO)
	if fifo[0] != 0 || fifo[1] != 64 {
		t.Fatalf("FIFO evicted wrong block: x=%d y=%d (want x evicted)", fifo[0], fifo[1])
	}
}

// Satellite edge path: shrinking below the free count must evict cached
// blocks (reporting how many), and shrinking below free+cached must fail
// without corrupting the pool.
func TestRemoveBlocksEvictsCachedFirst(t *testing.T) {
	p := newSharedPool(t, 8, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 192}
	a, _ := prefill(t, p, pfx, 256)
	held, _, _ := p.NewSeqCached(Prefix{}) // a live seq pinning nothing yet
	if err := held.Append(64); err != nil {
		t.Fatal(err)
	}
	a.Free() // 3 cached (2 full + trimmed boundary), 1 used, 4 free
	if p.CachedBlocks() != 3 || p.FreeBlocks() != 4 || p.UsedBlocks() != 1 {
		t.Fatalf("cached=%d free=%d used=%d", p.CachedBlocks(), p.FreeBlocks(), p.UsedBlocks())
	}
	// Removing more than free+cached (the live block stands in the way).
	if _, err := p.RemoveBlocksEvicting(8); err == nil {
		t.Fatal("removed live blocks")
	}
	evicted, err := p.RemoveBlocksEvicting(6)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	if p.Stats().ShrinkEvictions != 2 {
		t.Fatalf("shrink evictions = %d", p.Stats().ShrinkEvictions)
	}
	if p.TotalBlocks() != 2 || p.FreeBlocks() != 0 || p.CachedBlocks() != 1 {
		t.Fatalf("after shrink: total=%d free=%d cached=%d",
			p.TotalBlocks(), p.FreeBlocks(), p.CachedBlocks())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	held.Free()
}

// Satellite edge path: swapping out a sequence whose last block is
// partially filled, with part of its chain shared.
func TestSwapOutPartiallyFilledLastBlockWithSharing(t *testing.T) {
	p := newSharedPool(t, 8, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 128}
	a, _ := prefill(t, p, pfx, 128+100) // 4 blocks, last filled 36
	b, cached := prefill(t, p, pfx, 128+10)
	if cached != 128 {
		t.Fatalf("cached = %d", cached)
	}
	// b: 2 shared refs + 1 private partial block. Swap it out: shared
	// blocks stay (a still... a does not hold them; they are published by
	// a) — the chain blocks keep a's references too.
	if err := b.SwapOut(); err != nil {
		t.Fatal(err)
	}
	if b.Blocks() != 0 || !b.Swapped() || b.Tokens() != 138 {
		t.Fatal("swap-out accounting")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Swap back in: the prefix chain re-matches, only the private tail
	// reallocates.
	if err := b.SwapIn(); err != nil {
		t.Fatal(err)
	}
	if b.Blocks() != 3 || b.Tokens() != 138 {
		t.Fatalf("swap-in blocks=%d tokens=%d", b.Blocks(), b.Tokens())
	}
	a.Free()
	b.Free()
	if p.LiveSequences() != 0 || p.UsedBlocks() != 0 {
		t.Fatal("leak after swap cycle")
	}
}

// A double free panics, and must not leak or double-credit the live
// sequence count, including interleaved with sharing.
func TestDoubleFreeLiveSequenceAccounting(t *testing.T) {
	p := newSharedPool(t, 8, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 64}
	a, _ := prefill(t, p, pfx, 128)
	b, _ := prefill(t, p, pfx, 128)
	if p.LiveSequences() != 2 {
		t.Fatal("live count")
	}
	a.Free()
	mustPanic(t, "double free of a", a.Free)
	if p.LiveSequences() != 1 {
		t.Fatalf("double free corrupted live count: %d", p.LiveSequences())
	}
	b.Free()
	mustPanic(t, "double free of b", b.Free)
	if p.LiveSequences() != 0 || p.UsedBlocks() != 0 {
		t.Fatalf("live=%d used=%d after double frees", p.LiveSequences(), p.UsedBlocks())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNetOfHitAdmission(t *testing.T) {
	// A pool too small for the full prompt but large enough net of the
	// cached prefix must admit via the cached chain.
	p := newSharedPool(t, 4, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 128}
	a, _ := prefill(t, p, pfx, 192)
	a.Free() // 2 cached, pool free = 2
	probe := p.CachedPrefixTokens(pfx)
	if probe != 128 {
		t.Fatalf("probe = %d", probe)
	}
	if !p.CanFit(192 - probe) {
		t.Fatal("net-of-hit fit rejected")
	}
	s, cached, err := p.NewSeqCached(pfx)
	if err != nil || cached != 128 {
		t.Fatalf("cached admission: %v, %d", err, cached)
	}
	if err := s.Append(192 - cached); err != nil {
		t.Fatal(err)
	}
	s.Free()
}

// Sharing-disabled pools must never cache: the counter behavior is exact.
func TestSharingDisabledNeverCaches(t *testing.T) {
	p := NewPool(8, 64)
	s, cached, err := p.NewSeqCached(Prefix{ID: "c", Tokens: 128})
	if err != nil || cached != 0 {
		t.Fatalf("disabled pool served cache: %d, %v", cached, err)
	}
	s.Append(256)
	s.Free()
	if p.CachedBlocks() != 0 || p.FreeBlocks() != 8 {
		t.Fatal("disabled pool retained blocks")
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("disabled pool counted stats: %+v", st)
	}
}

// Property: sharing-enabled pools conserve blocks across arbitrary
// alloc/append/swap/free/prefix traffic.
func TestPropertySharedPoolConservation(t *testing.T) {
	ids := []string{"a", "b", "c"}
	f := func(ops []uint16) bool {
		p := NewPool(64, 16)
		p.EnableSharing(EvictLRU)
		var seqs []*Seq
		for _, op := range ops {
			switch op % 7 {
			case 0:
				pfx := Prefix{ID: ids[int(op/7)%len(ids)], Tokens: 8 * (1 + int(op)%6)}
				if s, _, err := p.NewSeqCached(pfx); err == nil {
					seqs = append(seqs, s)
				}
			case 1:
				if s, err := p.NewSeq(int(op % 256)); err == nil {
					seqs = append(seqs, s)
				}
			case 2:
				if len(seqs) > 0 {
					seqs[int(op)%len(seqs)].Append(int(op % 48))
				}
			case 3:
				if len(seqs) > 0 {
					seqs[int(op)%len(seqs)].SwapOut()
				}
			case 4:
				if len(seqs) > 0 {
					seqs[int(op)%len(seqs)].SwapIn()
				}
			case 5:
				if len(seqs) > 0 {
					i := int(op) % len(seqs)
					seqs[i].Free()
					seqs = append(seqs[:i], seqs[i+1:]...)
				}
			case 6:
				if op%2 == 0 {
					p.AddBlocks(int(op % 4))
				} else {
					p.RemoveBlocksEvicting(int(op % 4))
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for _, s := range seqs {
			s.Free()
		}
		return p.UsedBlocks() == 0 && p.LiveSequences() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Regression: the admission fit check must not double-count the matched
// chain. Here the pool's only reclaimable blocks ARE the cached chain: a
// naive CanFit(target - cachedTokens) would admit a request that provably
// cannot complete its prefill.
func TestCanFitWithPrefixDoesNotDoubleCountChain(t *testing.T) {
	p := newSharedPool(t, 2, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 96}
	a, _ := prefill(t, p, pfx, 128)
	a.Free() // whole pool cached: 1 full + 1 trimmed boundary block
	if p.FreeBlocks() != 0 || p.CachedBlocks() != 2 {
		t.Fatalf("free=%d cached=%d", p.FreeBlocks(), p.CachedBlocks())
	}
	probe := p.CachedPrefixTokens(pfx)
	if probe != 96 {
		t.Fatalf("probe = %d", probe)
	}
	// The naive check passes (2 blocks "available" for the 104 remaining
	// tokens)...
	if !p.CanFit(200 - probe) {
		t.Fatal("naive precondition changed; rebuild the scenario")
	}
	// ...but claiming the chain leaves nothing for the remainder.
	if p.CanFitWithPrefix(pfx, 200) {
		t.Fatal("over-admission: matched chain double-counted as reclaimable")
	}
	// The same request fits once the pool has room for the remainder.
	p.AddBlocks(2)
	if !p.CanFitWithPrefix(pfx, 200) {
		t.Fatal("fit rejected with room for the remainder")
	}
	s, cached, err := p.NewSeqCached(pfx)
	if err != nil || cached != 96 {
		t.Fatalf("admission: %v/%d", err, cached)
	}
	if err := s.Append(200 - cached); err != nil {
		t.Fatalf("prefill failed after positive fit check: %v", err)
	}
	s.Free()
}

// Regression: CanFitWithPrefix must reserve the copy-on-write block when
// the chain ends in a partial boundary block another sequence holds (it
// matched the cached chain and has not diverged yet).
func TestCanFitWithPrefixReservesCoWBlock(t *testing.T) {
	p := newSharedPool(t, 4, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 96}
	a, _ := prefill(t, p, pfx, 128)
	a.Free() // 2 cached: full block + trimmed 32-token boundary
	s1, cached, err := p.NewSeqCached(pfx)
	if err != nil || cached != 96 {
		t.Fatalf("first match: %v/%d", err, cached)
	}
	// s1 holds the boundary partial live; 2 free blocks remain. A
	// 200-token request: 4 total blocks - 2 matched = 2 new, plus 1 CoW
	// for the live boundary = 3 > 2 free.
	if p.CanFitWithPrefix(pfx, 200) {
		t.Fatal("CoW block not reserved")
	}
	p.AddBlocks(1)
	if !p.CanFitWithPrefix(pfx, 200) {
		t.Fatal("fit rejected with CoW room available")
	}
	s2, cached, err := p.NewSeqCached(pfx)
	if err != nil || cached != 96 {
		t.Fatalf("admission: %v/%d", err, cached)
	}
	if err := s2.Append(200 - cached); err != nil {
		t.Fatalf("prefill failed after positive fit check: %v", err)
	}
	if p.Stats().CoWCopies != 1 {
		t.Fatalf("CoW copies = %d", p.Stats().CoWCopies)
	}
	s2.Free()
	s1.Free()
}

// Regression: a sequence swapped out mid-prefill must not re-match chain
// content beyond its own token count on swap-in.
func TestSwapInCapsMatchAtOwnTokens(t *testing.T) {
	p := newSharedPool(t, 32, 64, EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 1000}
	// One request completes and caches the full 1000-token chain.
	a, _ := prefill(t, p, pfx, 1200)
	a.Free()
	// A second is swapped out after only 500 prefilled tokens.
	b, _, err := p.NewSeqCached(pfx)
	if err != nil {
		t.Fatal(err)
	}
	// (b matched the warm chain; rewind to the mid-prefill shape by using
	// a fresh pool-cold sequence instead.)
	b.Free()
	c, _, _ := p.NewSeqCached(Prefix{ID: "other", Tokens: 1000})
	if err := c.Append(500); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(); err != nil {
		t.Fatal(err)
	}
	// Meanwhile the full "other" chain gets published by a peer.
	d, _ := prefill(t, p, Prefix{ID: "other", Tokens: 1000}, 1200)
	d.Free()
	if err := c.SwapIn(); err != nil {
		t.Fatal(err)
	}
	if c.Tokens() != 500 {
		t.Fatalf("tokens = %d", c.Tokens())
	}
	if got, want := c.Blocks(), p.BlocksForTokens(500); got != want {
		t.Fatalf("blocks = %d, want %d (over-matched the published chain)", got, want)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Free()
	if p.LiveSequences() != 0 || p.UsedBlocks() != 0 {
		t.Fatal("leak")
	}
}

// indexShape renders the shared index, chains in prefix-ID order: one
// character per chain slot, 'r' for a referenced block, 'c' for a cached
// one and '.' for an empty slot.
func indexShape(p *Pool) string {
	ids := make([]string, 0, len(p.index))
	for id := range p.index {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%s:", id)
		for _, b := range p.index[id] {
			switch {
			case b == nil:
				sb.WriteByte('.')
			case b.cached:
				sb.WriteByte('c')
			default:
				sb.WriteByte('r')
			}
		}
		sb.WriteByte(' ')
	}
	return strings.TrimSpace(sb.String())
}

// TestChainIndexTwoPrefixes follows two prefixes' chains through one pool
// across every index edit — publish, copy-on-write, the sole holder's
// tail unpublish, the boundary trim at free, eviction under allocation
// pressure and eviction by a shrink — checking the index's shape and the
// pool's invariants after each step. A chain whose last block leaves the
// index is cut back to its last published block, and an empty one goes.
func TestChainIndexTwoPrefixes(t *testing.T) {
	p := newSharedPool(t, 16, 64, EvictLRU)
	pa := Prefix{ID: "a", Tokens: 100} // a full block and a 36-token boundary
	pb := Prefix{ID: "b", Tokens: 128} // two full blocks
	step := func(what, want string) {
		t.Helper()
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if got := indexShape(p); got != want {
			t.Fatalf("after %s: index %q, want %q", what, got, want)
		}
	}
	a1, _ := prefill(t, p, pa, 200)
	step("prefilling a", "a:r")
	b1, _ := prefill(t, p, pb, 130)
	step("prefilling b", "a:r b:rr")
	a1.Free()
	step("freeing a (boundary trimmed and published)", "a:cc b:rr")
	a2, c2, _ := p.NewSeqCached(pa)
	a3, c3, _ := p.NewSeqCached(pa)
	if c2 != 100 || c3 != 100 {
		t.Fatalf("matched %d and %d tokens of a, want 100", c2, c3)
	}
	step("matching a twice", "a:rr b:rr")
	if err := a2.Append(10); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.CoWCopies != 1 {
		t.Fatalf("CoW copies %d, want 1", st.CoWCopies)
	}
	step("copy-on-write of a's boundary", "a:rr b:rr")
	if err := a3.Append(10); err != nil {
		t.Fatal(err)
	}
	step("the sole holder writing past a's boundary", "a:r b:rr")
	a2.Free()
	step("freeing the copy (trimmed and published)", "a:rc b:rr")
	a3.Free()
	step("freeing the unpublished boundary", "a:cc b:rr")
	if got := p.CachedPrefixTokens(pa); got != 100 {
		t.Fatalf("a probes %d cached tokens, want 100", got)
	}
	// 3 blocks held by b1 and 2 cached leave 11 free: 12 evict the LRU
	// head, a's boundary copy (cached while a3 still held block 0), which
	// cuts a's chain back to block 0.
	big, err := p.NewSeq(12 * 64)
	if err != nil {
		t.Fatal(err)
	}
	step("evicting under allocation pressure", "a:c b:rr")
	if got := p.CachedPrefixTokens(pa); got != 64 {
		t.Fatalf("a probes %d cached tokens, want 64", got)
	}
	big.Free()
	b1.Free()
	step("freeing b", "a:c b:cc")
	if _, err := p.RemoveBlocksEvicting(p.FreeBlocks() + 2); err != nil {
		t.Fatal(err)
	}
	step("a shrink evicting a's block and b's first", "b:.c")
	if got := p.CachedPrefixTokens(pb); got != 0 {
		t.Fatalf("b probes %d cached tokens past a gap, want 0", got)
	}
	if st := p.Stats(); st.Evictions != 1 || st.ShrinkEvictions != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2 shrink evictions", st)
	}
	if _, err := p.RemoveBlocksEvicting(p.AvailableBlocks()); err != nil {
		t.Fatal(err)
	}
	step("a shrink evicting the rest", "")
}
