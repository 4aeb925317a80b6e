//go:build !race

package network

import (
	"testing"

	"kunserve/internal/sim"
)

// A link recycles its bulk transfer records: once a first transfer has
// grown the queues and the free list, a chunked send and its run to
// completion allocate nothing.
func TestWarmSendChunkedAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	fired := 0
	done := func() { fired++ }
	send := func() {
		l.SendChunked(3_500_000, 1_000_000, PriorityBulk, nil, done)
		s.Run()
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("warm SendChunked allocates %v objects", n)
	}
	if fired != 102 || l.BytesSent() != 102*3_500_000 {
		t.Fatalf("done fired %d times, %d bytes sent", fired, l.BytesSent())
	}
}

func BenchmarkSendChunked(b *testing.B) {
	s := sim.New(1)
	l := newTestLink(s)
	done := func() {}
	l.SendChunked(3_500_000, 1_000_000, PriorityBulk, nil, done)
	s.Run()
	b.ReportAllocs()
	for b.Loop() {
		l.SendChunked(3_500_000, 1_000_000, PriorityBulk, nil, done)
		s.Run()
	}
}
