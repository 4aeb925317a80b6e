package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled callback. The callback runs with the simulation clock
// set to the event's firing time. Event structs are pooled: once an event
// fires or is cancelled, its struct is recycled for a later schedule. Code
// outside this package never holds a *Event — scheduling returns a Handle
// whose generation counter detects recycled structs, so a stale Cancel can
// never kill an unrelated event that happens to reuse the same memory.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index, -1 when not queued
	gen   uint64
	fn    func()
	// fnArg/arg are the AtCall form: one persistent callback shared by many
	// events, parameterized per event. Exactly one of fn/fnArg is set.
	fnArg func(arg any)
	arg   any
	label string
}

// Handle identifies one scheduled event. The zero Handle is valid and refers
// to no event. Handles stay safe after the event fires or is cancelled: the
// underlying struct's generation moves on, and the handle observes that.
type Handle struct {
	e   *Event
	gen uint64
}

// Pending reports whether the event is still queued: it has not fired, been
// cancelled, or had its struct recycled for a newer event.
func (h Handle) Pending() bool { return h.e != nil && h.e.gen == h.gen }

// At returns the virtual time the event is scheduled to fire, or zero when
// the handle is no longer pending.
func (h Handle) At() Time {
	if !h.Pending() {
		return 0
	}
	return h.e.at
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
func (s *Simulation) At(t Time, label string, fn func()) Handle {
	e := s.schedule(t, label)
	e.fn = fn
	return Handle{e: e, gen: e.gen}
}

// AtCall schedules fn(arg) at time t. It is the allocation-free fan-out
// form of At: one persistent fn closure shared across many events plus a
// per-event arg replaces a fresh closure per schedule (converting a
// pointer-typed arg to any does not allocate).
func (s *Simulation) AtCall(t Time, label string, fn func(arg any), arg any) Handle {
	e := s.schedule(t, label)
	e.fnArg = fn
	e.arg = arg
	return Handle{e: e, gen: e.gen}
}

// AfterCall schedules fn(arg) to run d after the current time.
func (s *Simulation) AfterCall(d Duration, label string, fn func(arg any), arg any) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return s.AtCall(s.now.Add(d), label, fn, arg)
}

// schedule acquires and enqueues an event struct at time t; the caller
// fills in the callback.
func (s *Simulation) schedule(t Time, label string) *Event {
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
	e.seq = s.seq
	e.label = label
	s.seq++
	s.push(e)
	return e
}

// After schedules fn to run d after the current time.
func (s *Simulation) After(d Duration, label string, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return s.At(s.now.Add(d), label, fn)
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled, or zero handle is a no-op: the generation check makes
// stale handles harmless even after the event struct is recycled.
func (s *Simulation) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	s.remove(h.e.index)
	s.recycle(h.e)
}

// recycle retires an event struct to the free list. Bumping the generation
// invalidates every outstanding handle to it; dropping fn releases the
// captured closure for the collector.
func (s *Simulation) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.label = ""
	e.index = -1
	s.free = append(s.free, e)
}

// Stop halts the run loop after the current event completes.
func (s *Simulation) Stop() { s.stopped = true }

// Pending returns the number of events waiting in the queue.
func (s *Simulation) Pending() int { return len(s.queue) }

// NextEventTime returns the firing time of the earliest pending event; ok
// is false when the queue is empty. Between the current instant and that
// time no callback runs, so no simulation state can change — the adaptive
// cluster monitor uses this horizon to skip provably idle ticks.
func (s *Simulation) NextEventTime() (t Time, ok bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

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
	// retired struct is first in line for reuse. Handles to the fired
	// event are already stale by the time user code runs.
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
// (at, seq) is a strict total order — seq is unique per schedule — pop order
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
	e.index = len(s.queue)
	s.queue = append(s.queue, e)
	s.siftUp(e.index)
}

func (s *Simulation) popMin() *Event {
	q := s.queue
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap index i, preserving heap order.
func (s *Simulation) remove(i int) {
	q := s.queue
	n := len(q) - 1
	e := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	s.queue = q[:n]
	if i != n {
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	e.index = -1
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
		q[i].index = i
		i = parent
	}
	q[i] = e
	e.index = i
}

// siftDown restores heap order below index i, reporting whether the element
// moved (the signal remove uses to decide whether to sift up instead).
func (s *Simulation) siftDown(i int) bool {
	q := s.queue
	n := len(q)
	e := q[i]
	start := i
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
		q[i].index = i
		i = child
	}
	q[i] = e
	e.index = i
	return i > start
}
