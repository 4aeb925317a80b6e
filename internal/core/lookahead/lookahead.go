// Package lookahead implements KunServe's lookahead batch formulation
// (§4.3, Figures 10–11): under overloading there are enough queued requests
// to look ahead across, so instead of cutting microbatches by token count,
// the whole iteration batch is recursively split into two *cost*-balanced
// halves using the Eq. 1 cost model — which captures the quadratic
// attention terms token counting misses — until microbatches fall below a
// minimum token threshold. Balanced microbatch execution times minimize
// pipeline bubbles (Figure 8).
package lookahead

import (
	"fmt"

	"kunserve/internal/batching"
	"kunserve/internal/costmodel"
)

// DefaultMinTokens is the recursion floor: microbatches below this size
// stop splitting (Figure 11 lines 4–5). The paper derives it by dividing
// total token numbers, profiled offline; 512 keeps chunks GPU-efficient.
const DefaultMinTokens = 512

// Former is a cluster.Former that balances microbatches by modelled cost.
type Former struct {
	// Model is the fitted Eq. 1 cost model.
	Model *costmodel.Model
	// MinTokens floors microbatch size; <= 0 uses DefaultMinTokens.
	MinTokens int
	// Table, when set, evaluates Eq. 1 through the shared per-model
	// lookup table (costmodel.ForModel). It is immutable, so one Former
	// serves every group of a policy, and it returns bit-identical values,
	// so results are unchanged.
	Table *costmodel.Table
}

// chunkSeconds evaluates Eq. 1 through the table when attached.
func (f *Former) chunkSeconds(prefix, chunk int) float64 {
	if f.Table != nil {
		return f.Table.ChunkSeconds(prefix, chunk)
	}
	return f.Model.ChunkSeconds(prefix, chunk)
}

// itemCost evaluates one item under the model.
func (f *Former) itemCost(it batching.Item) float64 {
	return f.chunkSeconds(it.Prefix, it.Chunk)
}

// batchCost evaluates a microbatch under the model (Eq. 2–3).
func (f *Former) batchCost(items []batching.Item) float64 {
	if f.Table != nil {
		return f.Table.BatchSeconds(batching.ToChunkWork(items))
	}
	return f.Model.BatchSeconds(batching.ToChunkWork(items))
}

// Form implements the Figure 11 divide-and-conquer into s (see
// batching.Split). For single-stage groups it returns the batch unsplit
// (no pipeline, no bubbles to balance).
func (f *Former) Form(s *batching.Split, items []batching.Item, stages int) [][]batching.Item {
	if f.Model == nil {
		panic("lookahead: nil cost model")
	}
	if len(items) == 0 || stages <= 1 {
		return s.Whole(items)
	}
	s.Reset()
	min := f.MinTokens
	if min <= 0 {
		min = DefaultMinTokens
	}
	// Halting must also guarantee at least `stages` microbatches when
	// the work allows, or the pipeline starves; shrink the floor when
	// the batch is small.
	total := batching.TotalTokens(items)
	if floor := total / (2 * stages); floor < min && floor >= 1 {
		min = floor
	}
	if min < 1 {
		min = 1
	}
	return f.balance(s, items, min)
}

// balance emits b's microbatches into s, left to right, and returns every
// microbatch emitted so far.
func (f *Former) balance(s *batching.Split, b []batching.Item, minTokens int) [][]batching.Item {
	if batching.TotalTokens(b) <= minTokens || !splittable(b) {
		return s.Emit(b)
	}
	// Balance on summed per-item costs: the λ weight-load discount
	// (Eq. 3) applies to both halves alike and would otherwise skew the
	// midpoint toward zero for large batches.
	var sum float64
	for _, it := range b {
		sum += f.itemCost(it)
	}
	left, right := f.split(s, b, 0.5*sum)
	if len(left) == 0 || len(right) == 0 {
		return s.Emit(b)
	}
	f.balance(s, left, minTokens)
	return f.balance(s, right, minTokens)
}

// splittable reports whether the batch can be divided at all: more than one
// item, or a prefill item with more than one token.
func splittable(b []batching.Item) bool {
	if len(b) > 1 {
		return true
	}
	return len(b) == 1 && b[0].IsPrefill && b[0].Chunk > 1
}

// split divides b into two microbatches where the left's aggregated cost
// approximates targetCost, chunking a prefill request at the crossing point
// (the split() of Figure 11 line 8). Chunk prefixes stay consistent: the
// right part of a split prefill attends to the left part. The halves are
// subslices of b, except around a cut prefill item, where they are copies
// in s; b is never written.
func (f *Former) split(s *batching.Split, b []batching.Item, targetCost float64) (left, right []batching.Item) {
	acc := 0.0
	for i, it := range b {
		c := f.itemCost(it)
		if acc+c <= targetCost {
			acc += c
			continue
		}
		if !it.IsPrefill || it.Chunk <= 1 {
			// Unsplittable (decode steps are single tokens): the
			// boundary falls here.
			return b[:i:i], b[i:]
		}
		// The crossing prefill item: find the chunk length whose cost
		// exhausts the remaining budget.
		cut := f.cutTokens(it, targetCost-acc)
		switch {
		case cut <= 0:
			return b[:i:i], b[i:]
		case cut >= it.Chunk:
			return b[: i+1 : i+1], b[i+1:]
		}
		head, tail := it, it
		head.Chunk = cut
		tail.Prefix += cut
		tail.Chunk -= cut
		return s.Join(b[:i], head, nil), s.Join(nil, tail, b[i+1:])
	}
	return b, nil
}

// cutTokens binary-searches the largest chunk length whose modelled cost is
// at most want.
func (f *Former) cutTokens(it batching.Item, want float64) int {
	lo, hi := 0, it.Chunk
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.chunkSeconds(it.Prefix, mid) <= want {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Imbalance returns max/mean modelled microbatch cost, a diagnostic for the
// bubble experiments (1.0 = perfectly balanced).
func (f *Former) Imbalance(mbs [][]batching.Item) float64 {
	if len(mbs) == 0 {
		return 1
	}
	var sum, max float64
	for _, mb := range mbs {
		c := f.batchCost(mb)
		sum += c
		if c > max {
			max = c
		}
	}
	mean := sum / float64(len(mbs))
	if mean == 0 {
		return 1
	}
	return max / mean
}

// String describes the former for experiment output.
func (f *Former) String() string {
	return fmt.Sprintf("lookahead(min=%d)", f.MinTokens)
}
