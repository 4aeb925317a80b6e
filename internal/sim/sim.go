package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled callback. The callback runs with the simulation clock
// set to the event's firing time. Event structs are pooled: once an event
// fires, its struct is recycled for a later schedule. Code outside this
// package never holds a *Event — scheduling returns nothing, and an event,
// once scheduled, always fires (unless the run stops first).
type Event struct {
	at  Time
	seq uint64
	fn  func()
	// fnArg/arg are the AtCall form: one persistent callback shared by many
	// events, parameterized per event. Exactly one of fn/fnArg is set.
	fnArg func(arg any)
	arg   any
	label string
}

// Simulation is a deterministic discrete-event simulator. It is not safe for
// concurrent use; the entire simulated world runs on one goroutine.
type Simulation struct {
	now     Time
	queue   []*Event // binary min-heap ordered by (time, sequence)
	free    []*Event // recycled event structs awaiting reuse
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// Processed counts events that have fired (for diagnostics and the
	// kernel throughput benchmark).
	Processed uint64
}

// New creates a simulation with a deterministic RNG derived from seed.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Rand returns the simulation-owned RNG. All stochastic decisions inside the
// simulated world must use this generator so runs are reproducible.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at time t. Scheduling in the past panics: that is
// always a logic error in a discrete-event model.
func (s *Simulation) At(t Time, label string, fn func()) {
	s.schedule(t, s.nextSeq(), label).fn = fn
}

// After schedules fn to run d after the current time.
func (s *Simulation) After(d Duration, label string, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	s.At(s.now.Add(d), label, fn)
}

// AtCall schedules fn(arg) at time t. It is the allocation-free fan-out
// form of At: one persistent fn closure shared across many events plus a
// per-event arg replaces a fresh closure per schedule (converting a
// pointer-typed arg to any does not allocate).
func (s *Simulation) AtCall(t Time, label string, fn func(arg any), arg any) {
	e := s.schedule(t, s.nextSeq(), label)
	e.fnArg, e.arg = fn, arg
}

// AfterCall schedules fn(arg) to run d after the current time.
func (s *Simulation) AfterCall(d Duration, label string, fn func(arg any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	s.AtCall(s.now.Add(d), label, fn, arg)
}

// Reserve sets aside n consecutive sequence numbers and returns the first.
// An event later scheduled with AtSeqCall under one of them breaks
// same-time ties exactly as if it had been scheduled at the Reserve call,
// so a chain of events can be scheduled one at a time yet fire in the
// order of scheduling them all up front.
func (s *Simulation) Reserve(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: reserving %d sequence numbers", n))
	}
	base := s.seq
	s.seq += uint64(n)
	return base
}

// AtSeqCall is AtCall under a sequence number obtained from Reserve. Each
// reserved number must be used at most once.
func (s *Simulation) AtSeqCall(t Time, seq uint64, label string, fn func(arg any), arg any) {
	if seq >= s.seq {
		panic(fmt.Sprintf("sim: scheduling %q under unreserved sequence %d", label, seq))
	}
	e := s.schedule(t, seq, label)
	e.fnArg, e.arg = fn, arg
}

// nextSeq hands out the next unreserved sequence number.
func (s *Simulation) nextSeq() uint64 {
	s.seq++
	return s.seq - 1
}

// schedule acquires and enqueues an event struct at (t, seq); the caller
// fills in the callback.
func (s *Simulation) schedule(t Time, seq uint64, label string) *Event {
	if t.Before(s.now) {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.at = t
	e.seq = seq
	e.label = label
	s.push(e)
	return e
}

// recycle retires an event struct to the free list; dropping fn releases
// the captured closure for the collector.
func (s *Simulation) recycle(e *Event) {
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.label = ""
	s.free = append(s.free, e)
}

// Stop halts the run loop after the current event completes.
func (s *Simulation) Stop() { s.stopped = true }

// Pending returns the number of events waiting in the queue.
func (s *Simulation) Pending() int { return len(s.queue) }

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty or the simulation was stopped.
func (s *Simulation) Step() bool {
	if s.stopped || len(s.queue) == 0 {
		return false
	}
	e := s.popMin()
	if e.at.Before(s.now) {
		panic("sim: time went backwards")
	}
	s.now = e.at
	s.Processed++
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	// Recycle before running: fn may schedule new events, and the freshly
	// retired struct is first in line for reuse.
	s.recycle(e)
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
	return true
}

// Run processes events until the queue drains or Stop is called.
func (s *Simulation) Run() {
	for s.Step() {
	}
}

// RunUntil processes events with firing time <= deadline. The clock is left
// at the later of its current value and the deadline.
func (s *Simulation) RunUntil(deadline Time) {
	for !s.stopped && len(s.queue) > 0 && !deadline.Before(s.queue[0].at) {
		s.Step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

// The event queue is a hand-rolled binary min-heap over (at, seq). Because
// (at, seq) is a strict total order — seq is unique per event — pop order
// is identical to any other correct heap, so replacing container/heap cannot
// perturb simulation results. Hand-rolling avoids the any-boxing and
// interface dispatch of heap.Push/heap.Pop on the hottest path in the
// simulator.

func (s *Simulation) eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

func (s *Simulation) push(e *Event) {
	s.queue = append(s.queue, e)
	s.siftUp(len(s.queue) - 1)
}

func (s *Simulation) popMin() *Event {
	q := s.queue
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return e
}

func (s *Simulation) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.eventLess(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// siftDown restores heap order below index i.
func (s *Simulation) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.eventLess(q[r], q[child]) {
			child = r
		}
		if !s.eventLess(q[child], e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
}
