package network

import (
	"testing"
	"testing/quick"

	"kunserve/internal/sim"
)

func newTestLink(s *sim.Simulation) *Link {
	// 1 GB/s, zero latency: a 1 MB transfer takes exactly 1 ms.
	return NewLink(s, "test", 1e9, 0)
}

func TestTransferTime(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, "l", RDMA200, DefaultLatency)
	// 1 GiB over 25 GB/s ≈ 43 ms.
	d := l.TransferTime(1 << 30)
	if d < 40*sim.Millisecond || d > 46*sim.Millisecond {
		t.Errorf("1 GiB over 200 Gbps = %v, want ~43ms", d)
	}
}

func TestSendCompletesAfterSerialization(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var at sim.Time
	l.Send(2_000_000, PriorityBulk, func() { at = s.Now() })
	s.Run()
	if at != sim.FromSeconds(0.002) {
		t.Errorf("completed at %v, want 2ms", at)
	}
	if l.BytesSent() != 2_000_000 {
		t.Errorf("bytes sent = %d", l.BytesSent())
	}
}

func TestFIFOWithinClass(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		l.Send(1_000_000, PriorityBulk, func() { order = append(order, name) })
	}
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

// The heart of §4.2: an activation queued behind bulk traffic jumps the
// queue and waits at most the in-flight transfer.
func TestActivationPriority(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var order []string
	l.Send(1_000_000, PriorityBulk, func() { order = append(order, "bulk1") })
	l.Send(1_000_000, PriorityBulk, func() { order = append(order, "bulk2") })
	var actAt sim.Time
	s.After(100*sim.Microsecond, "inject", func() {
		l.Send(10_000, PriorityActivation, func() {
			order = append(order, "act")
			actAt = s.Now()
		})
	})
	s.Run()
	if order[0] != "bulk1" || order[1] != "act" {
		t.Fatalf("order = %v, want activation after in-flight bulk only", order)
	}
	// bulk1 finishes at 1ms, activation takes 10µs.
	if want := sim.FromSeconds(0.00101); actAt != want {
		t.Errorf("activation done at %v, want %v", actAt, want)
	}
}

func TestParameterBetweenActivationAndBulk(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var order []string
	l.Send(1_000_000, PriorityBulk, func() { order = append(order, "bulk") })
	s.After(10*sim.Microsecond, "inject", func() {
		l.Send(1000, PriorityBulk, func() { order = append(order, "bulk2") })
		l.Send(1000, PriorityParameter, func() { order = append(order, "param") })
		l.Send(1000, PriorityActivation, func() { order = append(order, "act") })
	})
	s.Run()
	want := []string{"bulk", "act", "param", "bulk2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestZeroByteSend(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, "l", 1e9, 3*sim.Microsecond)
	fired := false
	l.Send(0, PriorityActivation, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("zero-byte send never completed")
	}
	if s.Now() != sim.Time(3*sim.Microsecond) {
		t.Errorf("completed at %v, want link latency", s.Now())
	}
}

func TestBusyAndStats(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	l.Send(1_000_000, PriorityBulk, nil)
	if !l.Busy() {
		t.Error("link not busy after send")
	}
	s.Run()
	if l.Busy() {
		t.Error("link busy after drain")
	}
	if l.BusyTime() != sim.Duration(sim.Millisecond) {
		t.Errorf("busy time = %v, want 1ms", l.BusyTime())
	}
	if l.Sends(PriorityBulk) != 1 || l.Sends(PriorityActivation) != 0 {
		t.Error("send counters wrong")
	}
}

func TestChunkedTransferCompletes(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	done := false
	var landed int64
	l.SendChunked(10_000_000, 1_000_000, PriorityBulk,
		func(n int64) { landed += n }, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("chunked transfer incomplete")
	}
	if landed != 10_000_000 || l.BytesSent() != 10_000_000 {
		t.Errorf("chunks landed %d bytes, link sent %d, want 10000000", landed, l.BytesSent())
	}
	if s.Now() != sim.FromSeconds(0.01) {
		t.Errorf("finished at %v, want 10ms", s.Now())
	}
	// 10 payload chunks plus the zero-byte completion send.
	if l.Sends(PriorityBulk) != 11 {
		t.Errorf("chunks sent = %d, want 11", l.Sends(PriorityBulk))
	}
}

// Activations injected mid-bulk-transfer wait at most one chunk: the §4.2
// guarantee that chunking provides.
func TestChunkedTransferYieldsToActivations(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	l.SendChunked(100_000_000, 1_000_000, PriorityBulk, nil, nil) // 100 chunks x 1ms
	var waits []sim.Duration
	for i := 0; i < 5; i++ {
		at := sim.FromSeconds(0.0105 + float64(i)*0.01)
		s.At(at, "inject", func() {
			sent := s.Now()
			l.Send(1000, PriorityActivation, func() {
				waits = append(waits, s.Now().Sub(sent))
			})
		})
	}
	s.Run()
	if len(waits) != 5 {
		t.Fatalf("activations completed: %d", len(waits))
	}
	for i, w := range waits {
		// At most one chunk (1ms) + own serialization (1µs).
		if w > 1100*sim.Microsecond {
			t.Errorf("activation %d waited %v, want <= ~1ms", i, w)
		}
	}
}

func TestChunkedPartialLastChunk(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	done := false
	l.SendChunked(1_500_000, 1_000_000, PriorityBulk, nil, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("incomplete")
	}
	if l.BytesSent() != 1_500_000 {
		t.Errorf("bytes = %d", l.BytesSent())
	}
	// 2 payload chunks plus the zero-byte completion send.
	if l.Sends(PriorityBulk) != 3 {
		t.Errorf("chunks = %d, want 3", l.Sends(PriorityBulk))
	}
}

func TestChunkedZeroBytesFiresAsynchronously(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	done, chunks := 0, 0
	l.SendChunked(0, 1024, PriorityBulk, func(int64) { chunks++ }, func() { done++ })
	if done != 0 {
		t.Fatal("zero-byte chunked transfer completed synchronously (re-entrancy hazard)")
	}
	s.Run()
	if done != 1 || chunks != 0 || l.BytesSent() != 0 {
		t.Fatalf("zero-byte chunked transfer: done fired %d times, %d chunks, %d bytes sent",
			done, chunks, l.BytesSent())
	}
}

// The bytes still to send (total less the chunks landed, as the chunk
// observer reports them) are non-increasing chunk by chunk, count the
// in-flight chunk until it lands (so remaining + BytesSent is the total at
// every step), and reach zero before done fires; done fires exactly once.
// These are the invariants every handoff/exchange caller leans on.
func TestRemainingDoneInvariants(t *testing.T) {
	const total, chunk = 3_500_000, 1_000_000
	s := sim.New(1)
	l := newTestLink(s)
	fired, chunks := 0, 0
	var remaining int64 = total
	onChunk := func(n int64) {
		chunks++
		if n <= 0 || n > chunk || n > remaining {
			t.Fatalf("chunk %d landed %d bytes with %d remaining", chunks, n, remaining)
		}
		if fired > 0 {
			t.Fatal("chunk landed after done fired")
		}
		remaining -= n
	}
	l.SendChunked(total, chunk, PriorityBulk, onChunk, func() {
		if remaining != 0 {
			t.Fatalf("done fired with %d bytes remaining", remaining)
		}
		fired++
	})
	if fired != 0 || chunks != 0 {
		t.Fatal("chunked transfer progressed before SendChunked returned")
	}
	last := remaining
	for s.Step() {
		if remaining > last {
			t.Fatalf("remaining grew: %d -> %d", last, remaining)
		}
		if remaining+l.BytesSent() != total {
			t.Fatalf("remaining %d + sent %d != %d", remaining, l.BytesSent(), total)
		}
		last = remaining
	}
	if remaining != 0 || chunks != 4 || fired != 1 {
		t.Fatalf("final state: remaining=%d after %d chunks, done fired %d times",
			remaining, chunks, fired)
	}
	// 4 payload chunks plus the zero-byte completion send.
	if l.Sends(PriorityBulk) != 5 {
		t.Errorf("sends = %d, want 5", l.Sends(PriorityBulk))
	}
}

// A record recycled after one transfer carries nothing into the next:
// back-to-back transfers on one link, each with its own observer, see
// only their own chunks and complete once each.
func TestChunkedRecordReuse(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	var landed [3]int64
	var fired [3]int
	sizes := [3]int64{2_500_000, 0, 1_000_000}
	var start func(i int)
	start = func(i int) {
		l.SendChunked(sizes[i], 1_000_000, PriorityBulk,
			func(n int64) { landed[i] += n },
			func() {
				fired[i]++
				if i+1 < len(sizes) {
					start(i + 1)
				}
			})
	}
	start(0)
	// A concurrent transfer without an observer or completion.
	l.SendChunked(700_000, 300_000, PriorityBulk, nil, nil)
	s.Run()
	for i := range sizes {
		if landed[i] != sizes[i] || fired[i] != 1 {
			t.Errorf("transfer %d: %d of %d bytes landed, done fired %d times",
				i, landed[i], sizes[i], fired[i])
		}
	}
	if l.BytesSent() != 2_500_000+1_000_000+700_000 {
		t.Errorf("bytes sent = %d", l.BytesSent())
	}
}

func TestFabric(t *testing.T) {
	s := sim.New(1)
	f := NewFabric(s, 4, RDMA400, DefaultLatency)
	if f.Size() != 4 {
		t.Fatal("size")
	}
	if f.Egress(2).Name() != "egress-2" {
		t.Fatal("egress naming")
	}
	// Links are independent: parallel sends overlap.
	var doneAt [2]sim.Time
	f.Egress(0).Send(50_000_000, PriorityBulk, func() { doneAt[0] = s.Now() })
	f.Egress(1).Send(50_000_000, PriorityBulk, func() { doneAt[1] = s.Now() })
	s.Run()
	if doneAt[0] != doneAt[1] {
		t.Errorf("parallel sends: %v vs %v", doneAt[0], doneAt[1])
	}
}

func TestPanics(t *testing.T) {
	s := sim.New(1)
	l := newTestLink(s)
	cases := []func(){
		func() { NewLink(s, "x", 0, 0) },
		func() { l.Send(-1, PriorityBulk, nil) },
		func() { l.Send(1, Priority(99), nil) },
		func() { l.SendChunked(10, 0, PriorityBulk, nil, nil) },
		func() { l.SendChunked(10, -4, PriorityBulk, nil, nil) },
		func() { l.SendChunked(-1, 1024, PriorityBulk, nil, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: total bytes sent equals the sum of all completed sends no
// matter how transfers interleave, and the link never loses a completion.
func TestPropertyByteConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := sim.New(5)
		l := newTestLink(s)
		var want int64
		completed := 0
		for i, sz := range sizes {
			b := int64(sz)
			want += b
			pri := Priority(i % int(numPriorities))
			l.Send(b, pri, func() { completed++ })
		}
		s.Run()
		return l.BytesSent() == want && completed == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chunked transfer of any size/chunking sends exactly its bytes.
func TestPropertyChunkedConservation(t *testing.T) {
	f := func(total uint16, chunk uint8) bool {
		s := sim.New(5)
		l := newTestLink(s)
		c := int64(chunk)*16 + 1
		done := false
		var landed int64
		l.SendChunked(int64(total), c, PriorityBulk, func(n int64) { landed += n }, func() { done = true })
		s.Run()
		return done && landed == int64(total) && l.BytesSent() == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
