package sim

import (
	"fmt"
	"math/bits"
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
	// ring, fill, occupied and far are the event queue (see push). The
	// ring (64 KB) is allocated by the first schedule that lands in it, so
	// building a simulation costs no more than the RNG; as a large object
	// it is page-aligned, so each bucket is one cache line.
	ring     *[ringSize][bucketCap]*Event
	fill     [ringSize]uint8
	occupied [ringSize / 64]uint64
	far      []*Event
	now      Time
	pending  int
	free     []*Event // recycled event structs awaiting reuse
	seq      uint64
	rng      *rand.Rand
	stopped  bool
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
func (s *Simulation) Pending() int { return s.pending }

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty or the simulation was stopped.
func (s *Simulation) Step() bool {
	if s.stopped || s.pending == 0 {
		return false
	}
	e, slot := s.head()
	s.take(slot)
	s.fire(e)
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
	for !s.stopped && s.pending > 0 {
		e, slot := s.head()
		if deadline.Before(e.at) {
			break
		}
		s.take(slot)
		s.fire(e)
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

// fire runs a dequeued event with the clock set to its time.
func (s *Simulation) fire(e *Event) {
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
}

// The event queue is a calendar queue. Virtual time is cut into buckets
// 2^bucketShift ns wide, and the ring holds the ringSize buckets starting
// at the one that contains now: an event lands in ring slot
// (at >> bucketShift) mod ringSize when it is due within that window and
// the bucket has room, and in the far heap otherwise. Every pending event
// is due at or after now, so the ring's events always lie in the window of
// the current now, one absolute bucket per slot, and slot order from now's
// slot (wrapping) is time order. Each bucket, like the far heap, is a
// binary min-heap over (at, seq). The earliest event is the lesser of the
// first occupied bucket's top (found through the occupancy bitmap) and the
// far heap's top. Because (at, seq) is a strict total order — seq is
// unique per event — the firing order is the one any exact priority queue
// gives, so the layout cannot change simulated output. Buckets are fixed
// arrays in one ring, so after the ring itself the queue allocates only
// when the far heap outgrows its largest depth so far.
//
// The sizes come from the schedule-delay histogram of kbench's workloads at
// seed 42. On fleet-diurnal (128 instances) 86% of schedules land
// 16.8–33.5 ms ahead (engine rounds), 124 events are pending on average (at
// most 130), and 2.0% of schedules land past the 134 ms window, the 1 s
// monitor ticks among them; that share is 1.1% on paper-burst and 3.0% on
// prefix-agentic. At this width the fullest bucket holds 7 events on
// fleet-diurnal and 4 on prefix-agentic. paper-burst's InferCept swap-ins
// pile up to 76 same-instant events into one bucket; all but bucketCap of
// them wait in the far heap.
const (
	bucketShift = 17 // bucket width 2^17 ns ≈ 131 µs
	ringSize    = 1024
	ringMask    = ringSize - 1
	bucketCap   = 8 // one 64-byte cache line of event pointers
)

// push enqueues e in its ring bucket, or in the far heap when e is due
// past the ring's window or its bucket is full.
func (s *Simulation) push(e *Event) {
	s.pending++
	b := int64(e.at) >> bucketShift
	i := b & ringMask
	n := s.fill[i]
	if b-int64(s.now)>>bucketShift >= ringSize || n == bucketCap {
		s.far = heapPush(s.far, e)
		return
	}
	if s.ring == nil {
		s.ring = new([ringSize][bucketCap]*Event)
	}
	heapPush(s.ring[i][:n], e)
	s.fill[i] = n + 1
	s.occupied[i>>6] |= 1 << (i & 63)
}

// head returns the earliest pending event and the ring slot holding it, or
// slot -1 when it is the far heap's top. The queue must not be empty.
func (s *Simulation) head() (*Event, int) {
	if len(s.far) == s.pending {
		// The ring is empty: a same-instant burst spilled into the far
		// heap, or only far events are left.
		return s.far[0], -1
	}
	slot := s.firstSlot()
	e := s.ring[slot][0]
	if len(s.far) > 0 && eventLess(s.far[0], e) {
		return s.far[0], -1
	}
	return e, slot
}

// take removes head's event from the slot head found it in.
func (s *Simulation) take(slot int) {
	s.pending--
	if slot < 0 {
		s.far = heapPop(s.far)
		return
	}
	n := s.fill[slot] - 1
	heapPop(s.ring[slot][:n+1])
	s.fill[slot] = n
	if n == 0 {
		s.occupied[slot>>6] &^= 1 << (slot & 63)
	}
}

// firstSlot returns the first occupied ring slot in time order, starting
// at now's slot and wrapping. The ring must not be empty.
func (s *Simulation) firstSlot() int {
	c := int(int64(s.now)>>bucketShift) & ringMask
	w := c >> 6
	if m := s.occupied[w] &^ (1<<(c&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	// The rest of the ring, ending with the bits of now's word below now's
	// slot (its bits from now's slot on are clear).
	for k := 1; k <= len(s.occupied); k++ {
		i := (w + k) & (len(s.occupied) - 1)
		if m := s.occupied[i]; m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// heapPush adds e to the binary min-heap h.
func heapPush(h []*Event, e *Event) []*Event {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	return h
}

// heapPop removes the top of the nonempty binary min-heap h.
func heapPop(h []*Event) []*Event {
	n := len(h) - 1
	e := h[n]
	h[n] = nil
	h = h[:n]
	if n == 0 {
		return h
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(h[r], h[child]) {
			child = r
		}
		if !eventLess(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
	return h
}
