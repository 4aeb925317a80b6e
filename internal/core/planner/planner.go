// Package planner implements KunServe's drop-plan generation (§4.1,
// Figure 6): given the current serving-group assignment and a memory
// requirement R, greedily merge the smallest groups — each merge drops one
// duplicated copy of the parameters cluster-wide — until enough memory is
// freed. Merging small groups first keeps pipeline depth, and therefore the
// performance penalty (Figure 5), minimal. Complexity is O(N log N).
package planner

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// ErrInfeasible is returned when even merging every group into one cannot
// free the required memory; the caller must fall back to KVCache-centric
// handling and autoscaling (§4.1).
var ErrInfeasible = errors.New("planner: cannot free required memory by dropping")

// GroupState describes one live serving group as planner input.
type GroupState struct {
	// ID is the cluster group ID.
	ID int
	// Size is the number of instances in the group (pipeline depth).
	Size int
}

// Merge is one output group of the plan.
type Merge struct {
	// GroupIDs are the input groups joined into one new group. A
	// singleton slice means the group is untouched.
	GroupIDs []int
	// Size is the resulting instance count.
	Size int
}

// Plan is a new group assignment with its freed-memory accounting.
type Plan struct {
	// Merges holds every output group; untouched groups appear as
	// singletons so the plan is a complete assignment (Figure 6 returns
	// Q.to_set()).
	Merges []Merge
	// FreedBytes is the parameter memory released by executing the plan.
	FreedBytes int64
}

// Changed returns only the merges that combine two or more groups (the ones
// requiring action).
func (p *Plan) Changed() []Merge {
	var out []Merge
	for _, m := range p.Merges {
		if len(m.GroupIDs) > 1 {
			out = append(out, m)
		}
	}
	return out
}

// node is a heap entry: a (possibly already merged) group.
type node struct {
	ids  []int
	size int
	seq  int // insertion order for deterministic tie-breaks
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].size != h[j].size {
		return h[i].size < h[j].size
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Derive runs the Figure 6 algorithm. paramBytes is the size of one
// complete parameter copy (each merge frees exactly one duplicated copy);
// required is R, the bytes that must be freed. A required of zero returns
// the identity plan.
//
// When the requirement cannot be met the best-effort plan (everything
// merged into one group) is returned alongside ErrInfeasible so the caller
// can both execute it and trigger its fallback.
func Derive(groups []GroupState, paramBytes, required int64) (*Plan, error) {
	return DeriveCapped(groups, paramBytes, required, 0)
}

// DeriveCapped is Derive with a maximum output group size (pipeline-depth
// bound): merges whose combined size would exceed maxSize are not taken.
// Figure 5 motivates the cap — every extra stage costs latency — so the
// policy bounds depth and treats a capped-out plan as infeasible beyond
// that point. maxSize <= 0 means unbounded.
func DeriveCapped(groups []GroupState, paramBytes, required int64, maxSize int) (*Plan, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("planner: no groups")
	}
	if paramBytes <= 0 {
		return nil, fmt.Errorf("planner: paramBytes = %d", paramBytes)
	}
	seen := make(map[int]bool, len(groups))
	h := make(nodeHeap, 0, len(groups))
	for i, g := range groups {
		if g.Size <= 0 {
			return nil, fmt.Errorf("planner: group %d size %d", g.ID, g.Size)
		}
		if seen[g.ID] {
			return nil, fmt.Errorf("planner: duplicate group id %d", g.ID)
		}
		seen[g.ID] = true
		h = append(h, &node{ids: []int{g.ID}, size: g.Size, seq: i})
	}
	heap.Init(&h)

	var freed int64
	seq := len(groups)
	for h.Len() >= 2 && freed < required {
		a := heap.Pop(&h).(*node)
		b := heap.Pop(&h).(*node)
		if maxSize > 0 && a.size+b.size > maxSize {
			// The two smallest already exceed the depth cap; no
			// other pair can be smaller.
			heap.Push(&h, a)
			heap.Push(&h, b)
			break
		}
		// The two groups' layer sets each form a complete copy; their
		// union after the merge keeps one, freeing the duplicate.
		freed += paramBytes
		merged := &node{
			ids:  append(append([]int{}, a.ids...), b.ids...),
			size: a.size + b.size,
			seq:  seq,
		}
		seq++
		heap.Push(&h, merged)
	}

	plan := &Plan{FreedBytes: freed}
	for _, n := range h {
		ids := append([]int{}, n.ids...)
		sort.Ints(ids)
		plan.Merges = append(plan.Merges, Merge{GroupIDs: ids, Size: n.size})
	}
	sort.Slice(plan.Merges, func(i, j int) bool {
		return plan.Merges[i].GroupIDs[0] < plan.Merges[j].GroupIDs[0]
	})
	if freed < required {
		return plan, ErrInfeasible
	}
	return plan, nil
}
