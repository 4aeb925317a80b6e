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
}

// itemCost evaluates one item under the model.
func (f *Former) itemCost(it batching.Item) float64 {
	return f.Model.ChunkSeconds(it.Prefix, it.Chunk)
}

// Form implements the Figure 11 divide-and-conquer into s (see
// batching.Split) over the batch dec ++ items past its item decodes (see
// batching.Decode). Each decode step is priced once, as ChunkSeconds(ctx,
// 1), into the scratch's cost slots, and every sum adds those costs in
// batch order, so the float sums and cut points are those of a batch with
// one item per step; fast decodes are summed into their microbatch's Dec.
// For single-stage groups it returns the batch unsplit (no pipeline, no
// bubbles to balance).
func (f *Former) Form(s *batching.Split, dec []batching.Decode, items []batching.Item, stages int) []batching.Microbatch {
	if f.Model == nil {
		panic("lookahead: nil cost model")
	}
	if len(dec)+len(items) == 0 || stages <= 1 {
		return s.Whole(dec, items)
	}
	s.Reset()
	min := f.MinTokens
	if min <= 0 {
		min = DefaultMinTokens
	}
	costs := s.Costs(len(dec))
	for j, d := range dec {
		costs[j] = f.Model.ChunkSeconds(d.Ctx(), 1)
	}
	nd := batching.ItemDecodes(dec)
	fm := formation{f: f, s: s, dec: dec, costs: costs, items: items[:nd]}
	whole := part{hi: len(dec), t: items[nd:]}
	// Halting must also guarantee at least `stages` microbatches when
	// the work allows, or the pipeline starves; shrink the floor when
	// the batch is small.
	if floor := whole.tokens() / (2 * stages); floor < min && floor >= 1 {
		min = floor
	}
	if min < 1 {
		min = 1
	}
	return fm.balance(whole, min)
}

// formation is one Form call's state: the decode sequence and its steps'
// costs, its item decodes, and how many of them the microbatches emitted
// so far took. Microbatches are emitted left to right, so the next one's
// item decodes start there.
type formation struct {
	f     *Former
	s     *batching.Split
	dec   []batching.Decode
	costs []float64
	items []batching.Item
	next  int
}

// part is a batch under recursion: the decode steps dec[lo:hi], then the
// items t. Every decode step precedes every item past the decode run, so
// a part holding items has hi == len(dec), or no steps at all.
type part struct {
	lo, hi int
	t      []batching.Item
}

func (p part) size() int   { return p.hi - p.lo + len(p.t) }
func (p part) tokens() int { return p.hi - p.lo + batching.TotalTokens(p.t) }

// splittable reports whether the part can be divided at all: more than
// one step or item, or a lone prefill item with more than one token.
func (p part) splittable() bool {
	if p.size() > 1 {
		return true
	}
	return len(p.t) == 1 && p.t[0].IsPrefill && p.t[0].Chunk > 1
}

// balance emits b's microbatches into the scratch, left to right, and
// returns every microbatch emitted so far.
func (fm *formation) balance(b part, minTokens int) []batching.Microbatch {
	if b.tokens() <= minTokens || !b.splittable() {
		return fm.emit(b)
	}
	// Balance on summed per-item costs: the λ weight-load discount
	// (Eq. 3) applies to both halves alike and would otherwise skew the
	// midpoint toward zero for large batches.
	var sum float64
	for _, c := range fm.costs[b.lo:b.hi] {
		sum += c
	}
	for _, it := range b.t {
		sum += fm.f.itemCost(it)
	}
	left, right := fm.split(b, 0.5*sum)
	if left.size() == 0 || right.size() == 0 {
		return fm.emit(b)
	}
	fm.balance(left, minTokens)
	return fm.balance(right, minTokens)
}

// emit appends b as the next microbatch: its fast steps summed, its item
// decodes ahead of its items.
func (fm *formation) emit(b part) []batching.Microbatch {
	fast, k := batching.SumDecodes(fm.dec[b.lo:b.hi])
	its := fm.items[fm.next : fm.next+k : fm.next+k]
	fm.next += k
	switch {
	case len(b.t) == 0:
	case k == 0:
		its = b.t
	default:
		// A copy of the item decodes followed by the items.
		its = fm.s.Join(its[:k-1], its[k-1], b.t)
	}
	return fm.s.Emit(batching.Microbatch{Items: its, Dec: fast})
}

// split divides b into two parts where the left's aggregated cost
// approximates targetCost, chunking a prefill request at the crossing point
// (the split() of Figure 11 line 8). Chunk prefixes stay consistent: the
// right part of a split prefill attends to the left part. Decode steps are
// single tokens, so a boundary inside the decode run falls at a step. The
// items of each part are subslices of b's, except around a cut prefill
// item, where they are copies in the scratch; b is never written.
func (fm *formation) split(b part, targetCost float64) (left, right part) {
	acc := 0.0
	for j, c := range fm.costs[b.lo:b.hi] {
		if acc+c <= targetCost {
			acc += c
			continue
		}
		j += b.lo
		return part{lo: b.lo, hi: j}, part{lo: j, hi: b.hi, t: b.t}
	}
	before := func(t []batching.Item) part { return part{lo: b.lo, hi: b.hi, t: t} }
	after := func(t []batching.Item) part { return part{lo: b.hi, hi: b.hi, t: t} }
	for i, it := range b.t {
		c := fm.f.itemCost(it)
		if acc+c <= targetCost {
			acc += c
			continue
		}
		if !it.IsPrefill || it.Chunk <= 1 {
			// Unsplittable: the boundary falls here.
			return before(b.t[:i:i]), after(b.t[i:])
		}
		// The crossing prefill item: find the chunk length whose cost
		// exhausts the remaining budget.
		cut := fm.f.cutTokens(it, targetCost-acc)
		switch {
		case cut <= 0:
			return before(b.t[:i:i]), after(b.t[i:])
		case cut >= it.Chunk:
			return before(b.t[: i+1 : i+1]), after(b.t[i+1:])
		}
		head, tail := it, it
		head.Chunk = cut
		tail.Prefix += cut
		tail.Chunk -= cut
		return before(fm.s.Join(b.t[:i], head, nil)), after(fm.s.Join(nil, tail, b.t[i+1:]))
	}
	return b, after(nil)
}

// cutTokens binary-searches the largest chunk length whose modelled cost is
// at most want.
func (f *Former) cutTokens(it batching.Item, want float64) int {
	lo, hi := 0, it.Chunk
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.Model.ChunkSeconds(it.Prefix, mid) <= want {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// String describes the former for experiment output.
func (f *Former) String() string {
	return fmt.Sprintf("lookahead(min=%d)", f.MinTokens)
}
