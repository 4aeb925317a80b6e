//go:build !race

package kvcache

import "testing"

// seqCycle admits a sequence on the cached prefix, prefills and decodes it
// past several block edges (copy-on-write on the shared boundary block
// included) and frees it: one request's life on a pool.
func seqCycle(p *Pool, pfx Prefix) {
	s, hit, err := p.NewSeqCached(pfx)
	if err != nil {
		panic(err)
	}
	if err := s.Append(100 - hit); err != nil {
		panic(err)
	}
	for range 40 {
		if err := s.Append(1); err != nil {
			panic(err)
		}
	}
	s.Free()
}

// A warm pool recycles its Seq, Block and block-slice structs, so a
// request's admission, growth and release allocate nothing once the first
// cycle has filled the free lists and the prefix chain.
func TestWarmSeqCycleAllocatesNothing(t *testing.T) {
	p := NewPool(64, 16)
	p.EnableSharing(EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 40}
	seqCycle(p, pfx)
	if n := testing.AllocsPerRun(100, func() { seqCycle(p, pfx) }); n != 0 {
		t.Fatalf("warm NewSeqCached/Free cycle allocates %v objects", n)
	}
	if p.LiveSequences() != 0 {
		t.Fatalf("%d live sequences after the cycles", p.LiveSequences())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeqRecycle(b *testing.B) {
	p := NewPool(64, 16)
	p.EnableSharing(EvictLRU)
	pfx := Prefix{ID: "c", Tokens: 40}
	seqCycle(p, pfx)
	b.ReportAllocs()
	for b.Loop() {
		seqCycle(p, pfx)
	}
}
