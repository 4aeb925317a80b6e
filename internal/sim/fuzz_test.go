package sim

import (
	"fmt"
	"testing"
)

// FuzzSimOrder runs random operation streams on a simulation — At, After,
// AtCall, Reserve with reserved numbers used out of order, same-instant
// bursts of 100 or more events, events past the ring's window, RunUntil
// deadlines and Stop — and checks every firing against a reference: the
// event that fires must be the least pending one by (at, seq), at its own
// time. Callbacks schedule follow-ups, so events are also scheduled from
// inside a firing. The seed corpus is testdata/fuzz/FuzzSimOrder.
func FuzzSimOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runSimOps(t, data)
	})
}

// opReader hands out the fuzz input a byte at a time, zero once spent.
type opReader struct{ data []byte }

func (r *opReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// refEvent is one scheduled event as the reference sees it.
type refEvent struct {
	at  Time
	seq uint64
	// follow is the delay class of the follow-up the event schedules when
	// it fires, or -1 for none.
	follow int
}

// simModel is the reference: the pending events and the sequence counter
// the simulation should hold.
type simModel struct {
	t       *testing.T
	s       *Simulation
	pending []*refEvent
	seq     uint64
	// reserved holds reserved sequence numbers not yet used.
	reserved []uint64
	fired    int
}

// least returns the index of the least pending event by (at, seq).
func (m *simModel) least() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 || e.at < m.pending[best].at || e.at == m.pending[best].at && e.seq < m.pending[best].seq {
			best = i
		}
	}
	return best
}

// fire is every event's callback: it checks the event against the
// reference and schedules the event's follow-up.
func (m *simModel) fire(arg any) {
	e := arg.(*refEvent)
	i := m.least()
	if i < 0 || m.pending[i] != e {
		m.t.Fatalf("event (%d, %d) fired; the least pending is %v", e.at, e.seq, m.describe(i))
	}
	if m.s.Now() != e.at {
		m.t.Fatalf("event due at %d fired with the clock at %d", e.at, m.s.Now())
	}
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	m.fired++
	if e.follow >= 0 {
		m.schedule(delay(e.follow, int(e.seq)), -1, 0)
	}
}

func (m *simModel) describe(i int) string {
	if i < 0 {
		return "none"
	}
	return fmt.Sprintf("(%d, %d)", m.pending[i].at, m.pending[i].seq)
}

// schedule schedules an event d from now through At (form 0), After (1)
// or AtCall (2) and records it in the reference.
func (m *simModel) schedule(d Duration, follow, form int) {
	e := &refEvent{at: m.s.Now().Add(d), seq: m.seq, follow: follow}
	m.seq++
	m.pending = append(m.pending, e)
	switch form {
	case 0:
		m.s.At(e.at, "fuzz", func() { m.fire(e) })
	case 1:
		m.s.After(d, "fuzz", func() { m.fire(e) })
	default:
		m.s.AtCall(e.at, "fuzz", m.fire, e)
	}
}

// window is the ring's reach in virtual time.
const window = Duration(ringSize << bucketShift)

// delay maps a class byte and a magnitude to a delay: the same instant,
// nanoseconds, within one bucket, the 16–33 ms spread of engine rounds, a
// few buckets either side of the ring's window edge, past the window, and
// far past it.
func delay(class, mag int) Duration {
	switch class % 7 {
	case 0:
		return 0
	case 1:
		return Duration(mag % 256)
	case 2:
		return Duration(mag%256) * 512
	case 3:
		return 16800*Microsecond + Duration(mag%256)*65*Microsecond
	case 4:
		return window + Duration(mag%256-128)<<(bucketShift-4)
	case 5:
		return 200*Millisecond + Duration(mag%256)*20*Millisecond
	default:
		return Duration(mag%256+1) * 3600 * Second
	}
}

// maxSimOps bounds one input's operation stream, and maxFuzzPending the
// depth at which bursts stop.
const (
	maxSimOps      = 256
	maxFuzzPending = 1024
)

func runSimOps(t *testing.T, data []byte) {
	in := &opReader{data: data}
	s := New(1)
	m := &simModel{t: t, s: s}
	stopped := false
	for op := 0; op < maxSimOps && len(in.data) > 0; op++ {
		switch in.next() % 9 {
		case 0, 1: // At or After one event, maybe with a follow-up
			class, mag, follow := in.next(), in.next(), in.next()
			f := -1
			if follow%2 == 1 {
				f = follow / 2
			}
			m.schedule(delay(class/2, mag), f, class%2)
		case 2: // AtCall
			m.schedule(delay(in.next(), in.next()), -1, 2)
		case 3: // Reserve
			n := in.next()%8 + 1
			if base := s.Reserve(n); base != m.seq {
				t.Fatalf("Reserve(%d) returned %d, want %d", n, base, m.seq)
			}
			for k := 0; k < n; k++ {
				m.reserved = append(m.reserved, m.seq+uint64(k))
			}
			m.seq += uint64(n)
		case 4: // AtSeqCall under any unused reserved number
			if len(m.reserved) == 0 {
				break
			}
			k := in.next() % len(m.reserved)
			seq := m.reserved[k]
			m.reserved = append(m.reserved[:k], m.reserved[k+1:]...)
			e := &refEvent{at: s.Now().Add(delay(in.next(), in.next())), seq: seq, follow: -1}
			m.pending = append(m.pending, e)
			s.AtSeqCall(e.at, seq, "fuzz", m.fire, e)
		case 5: // a same-instant burst of 100 or more events
			n, d := 100+in.next()%64, delay(in.next(), in.next())
			if len(m.pending) >= maxFuzzPending {
				// The reference's linear scans bound the queue's depth.
				break
			}
			for k := 0; k < n; k++ {
				m.schedule(d, -1, 2-2*(k%2))
			}
		case 6: // Step a few times
			for k := in.next()%16 + 1; k > 0; k-- {
				was, due := m.fired, len(m.pending) > 0
				ok := s.Step()
				if fired := m.fired - was; ok != due || ok && fired != 1 || !ok && fired != 0 {
					t.Fatalf("Step returned %v (events pending: %v) and fired %d events", ok, due, fired)
				}
			}
		case 7: // RunUntil a deadline
			deadline := s.Now().Add(delay(in.next(), in.next()))
			s.RunUntil(deadline)
			if s.Now() != deadline {
				t.Fatalf("RunUntil(%d) left the clock at %d", deadline, s.Now())
			}
			if i := m.least(); i >= 0 && !m.pending[i].at.After(deadline) {
				t.Fatalf("RunUntil(%d) left %s pending", deadline, m.describe(i))
			}
		case 8: // Stop: nothing fires afterwards
			s.Stop()
			stopped = true
		}
		if s.Pending() != len(m.pending) || s.Processed != uint64(m.fired) {
			t.Fatalf("op %d: %d pending and %d processed, want %d and %d",
				op, s.Pending(), s.Processed, len(m.pending), m.fired)
		}
		if stopped {
			// A stopped run fires nothing more, and a RunUntil would move
			// the clock past pending events, so the stream ends here.
			break
		}
	}
	if stopped {
		if s.Step() {
			t.Fatal("Step fired an event after Stop")
		}
		return
	}
	s.Run()
	if len(m.pending) != 0 || s.Pending() != 0 {
		t.Fatalf("Run left %d pending (reference %d)", s.Pending(), len(m.pending))
	}
}
