// Package sched is the scheduling layer: routers rank the serving groups a
// dispatched request may join, disciplines order each group's wait queue,
// and SLO class targets parameterize both the deadline-driven disciplines
// and the per-class attainment metrics. A router is a scalar key per
// candidate; the cluster keeps its candidates in an Index under that key
// and dispatches to the (key, group ID) minimum. Every group gets its own
// Discipline. Every implementation is deterministic: the same request
// stream always produces the same placement and order.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"kunserve/internal/request"
)

// Candidate is one live serving group as the router sees it: its identity,
// its current KV memory demand/capacity in tokens, and its wait-queue
// depth. Only groups whose role admits new arrivals are candidates: decode
// groups receive work by KV handoff, never from the dispatcher.
type Candidate struct {
	ID             int
	DemandTokens   int
	CapacityTokens int
	// QueueLen is the candidate's wait-queue depth; queue-depth routing
	// (the disaggregated prefill dispatcher) keys on it.
	QueueLen int
}

// Load returns the demand/capacity ratio.
func (c Candidate) Load() float64 {
	return float64(c.DemandTokens) / float64(c.CapacityTokens)
}

// Router ranks the groups a dispatched request may join: the request goes
// to the candidate with the smallest key, the lowest group ID winning
// ties. Keys must be totally ordered (never NaN): every candidate has
// positive KV capacity.
type Router interface {
	// Name identifies the router in trace events and output.
	Name() string
	// Key returns c's ranking key.
	Key(c Candidate) float64
}

// Discipline orders one group's wait queue. The group admits from the head
// (Peek/Pop) while requests fit; head-of-line semantics are therefore the
// discipline's to define. Implementations need not be safe for concurrent
// use: a group is single-threaded inside its simulation.
type Discipline interface {
	// Name identifies the discipline in flags and output.
	Name() string
	// Push adds a newly arrived request.
	Push(r *request.Request)
	// PushFront re-queues a preempted request ahead of new arrivals. FCFS
	// honors literal front placement; ordered disciplines fold the request
	// into their normal order (its old arrival already sorts it early).
	PushFront(r *request.Request)
	// Peek returns the next request without removing it, nil when empty.
	Peek() *request.Request
	// Pop removes and returns the next request, nil when empty.
	Pop() *request.Request
	// Len returns the queued-request count.
	Len() int
	// Each visits every queued request in dispatch order without copying.
	Each(fn func(*request.Request))
}

// ClassTarget declares one SLO class's objectives. Zero fields mean "no
// target declared" for that dimension.
type ClassTarget struct {
	// TTFT is the time-to-first-token target in seconds.
	TTFT float64
	// TBT is the time-between-tokens (TPOT) target in seconds per token.
	TBT float64
	// Priority orders classes under the priority discipline; larger is
	// served first. Untargeted classes default to 0.
	Priority int
}

// ClassTargets maps SLO class names to their targets.
type ClassTargets map[string]ClassTarget

// Names returns the class names in sorted order.
func (t ClassTargets) Names() []string {
	out := make([]string, 0, len(t))
	for name := range t {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DisciplineNames lists the built-in queue disciplines.
var DisciplineNames = []string{"fcfs", "priority", "edf"}

// NewDisciplineByName builds a named queue discipline against the given
// class targets (deadline- and priority-driven disciplines read them; FCFS
// ignores them).
func NewDisciplineByName(name string, targets ClassTargets) (Discipline, error) {
	switch name {
	case "", "fcfs":
		return NewFCFS(), nil
	case "priority", "slo-priority":
		return NewPriority(targets), nil
	case "edf", "earliest-deadline-first":
		return NewEDF(targets), nil
	}
	return nil, fmt.Errorf("sched: unknown discipline %q (valid: %s)",
		name, strings.Join(DisciplineNames, ", "))
}
