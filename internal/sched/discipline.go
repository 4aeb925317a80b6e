package sched

import (
	"sort"

	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// FCFS is the default first-come-first-served discipline: Push appends,
// PushFront literally prepends (the preemption re-queue path), admission
// pops the head. It reproduces the original raw wait-queue slice exactly,
// stored as a deque: the queue is q[head:], and q[:head] is a front gap
// PushFront fills. Every slot outside q[head:] is nil. Each end grows by
// doubling — PushFront opens a gap as large as the queue when it finds
// none — so Push, PushFront and Pop cost amortized O(1), and steady churn
// allocates nothing.
type FCFS struct {
	q    []*request.Request
	head int
}

// minGap is the smallest front gap PushFront opens.
const minGap = 4

// NewFCFS returns an empty FCFS queue.
func NewFCFS() Discipline { return &FCFS{} }

// Name implements Discipline.
func (*FCFS) Name() string { return "fcfs" }

// Push implements Discipline. When the array is full and at least half of
// it is front gap, Push slides the queue down to halve the gap instead of
// growing the array, so a queue that never empties does not grow without
// bound.
func (f *FCFS) Push(r *request.Request) {
	if len(f.q) == cap(f.q) && f.head > 0 && 2*f.head >= len(f.q) {
		h := f.head / 2
		n := copy(f.q[h:], f.q[f.head:])
		clear(f.q[h+n:])
		f.q, f.head = f.q[:h+n], h
	}
	f.q = append(f.q, r)
}

// PushFront implements Discipline.
func (f *FCFS) PushFront(r *request.Request) {
	if f.head == 0 {
		gap := max(len(f.q), minGap)
		q := make([]*request.Request, gap+len(f.q), gap+cap(f.q))
		copy(q[gap:], f.q)
		f.q, f.head = q, gap
	}
	f.head--
	f.q[f.head] = r
}

// Peek implements Discipline.
func (f *FCFS) Peek() *request.Request {
	if f.head == len(f.q) {
		return nil
	}
	return f.q[f.head]
}

// Pop implements Discipline.
func (f *FCFS) Pop() *request.Request {
	if f.head == len(f.q) {
		return nil
	}
	r := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		// Empty: recentre, leaving room at both ends.
		f.head = cap(f.q) / 2
		f.q = f.q[:f.head]
	}
	return r
}

// Len implements Discipline.
func (f *FCFS) Len() int { return len(f.q) - f.head }

// Each implements Discipline.
func (f *FCFS) Each(fn func(*request.Request)) {
	for _, r := range f.q[f.head:] {
		fn(r)
	}
}

// ordered is a Discipline kept sorted under a strict total order. less
// must tie-break down to request ID, so insertion position — and thus the
// whole schedule — is deterministic. PushFront folds into the same order:
// a preempted request's old arrival already sorts it ahead of newer peers
// of equal rank.
type ordered struct {
	name string
	q    []*request.Request
	less func(a, b *request.Request) bool
}

// Name implements Discipline.
func (o *ordered) Name() string { return o.name }

// Push implements Discipline.
func (o *ordered) Push(r *request.Request) { o.insert(r) }

// PushFront implements Discipline.
func (o *ordered) PushFront(r *request.Request) { o.insert(r) }

func (o *ordered) insert(r *request.Request) {
	i := sort.Search(len(o.q), func(i int) bool { return o.less(r, o.q[i]) })
	o.q = append(o.q, nil)
	copy(o.q[i+1:], o.q[i:])
	o.q[i] = r
}

// Peek implements Discipline.
func (o *ordered) Peek() *request.Request {
	if len(o.q) == 0 {
		return nil
	}
	return o.q[0]
}

// Pop implements Discipline.
func (o *ordered) Pop() *request.Request {
	if len(o.q) == 0 {
		return nil
	}
	r := o.q[0]
	o.q = o.q[1:]
	return r
}

// Len implements Discipline.
func (o *ordered) Len() int { return len(o.q) }

// Each implements Discipline.
func (o *ordered) Each(fn func(*request.Request)) {
	for _, r := range o.q {
		fn(r)
	}
}

// NewPriority returns a discipline serving SLO classes by their declared
// priority (larger first), breaking ties by arrival then ID — so within a
// class it degenerates to FCFS. Requests of undeclared classes run at
// priority 0.
func NewPriority(targets ClassTargets) Discipline {
	return &ordered{
		name: "priority",
		less: func(a, b *request.Request) bool {
			pa, pb := targets[a.Class].Priority, targets[b.Class].Priority
			if pa != pb {
				return pa > pb
			}
			if a.Arrival != b.Arrival {
				return a.Arrival < b.Arrival
			}
			return a.ID < b.ID
		},
	}
}

// defaultDeadline spaces requests of classes with no TTFT target far
// behind every targeted class while preserving arrival order among
// themselves.
const defaultDeadline = 3600 * sim.Second

// NewEDF returns an earliest-deadline-first discipline over per-class
// TTFT targets: a request's deadline is its arrival plus its class's TTFT
// target (classes without a target get a far-future deadline, preserving
// FCFS order among themselves). Ties break by arrival then ID.
func NewEDF(targets ClassTargets) Discipline {
	deadline := func(r *request.Request) sim.Time {
		if t := targets[r.Class].TTFT; t > 0 {
			return r.Arrival.Add(sim.DurationFromSeconds(t))
		}
		return r.Arrival.Add(defaultDeadline)
	}
	return &ordered{
		name: "edf",
		less: func(a, b *request.Request) bool {
			da, db := deadline(a), deadline(b)
			if da != db {
				return da < db
			}
			if a.Arrival != b.Arrival {
				return a.Arrival < b.Arrival
			}
			return a.ID < b.ID
		},
	}
}
