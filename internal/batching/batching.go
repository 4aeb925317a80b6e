// Package batching implements continuous batching with chunked prefill —
// the Sarathi-Serve/vLLM-style iteration former all evaluated systems share
// — plus the token-count-based microbatch splitting that state-of-the-art
// pipeline implementations use (and whose imbalance Figure 9 criticizes;
// the KunServe lookahead former in internal/core/lookahead is the fix).
// Formers take a round's decode steps as a compact sequence (Decode) and
// return Microbatches whose steady decodes ride an aggregate term.
package batching

import (
	"fmt"

	"kunserve/internal/gpu"
	"kunserve/internal/request"
)

// Item is one request's share of an iteration: a prefill chunk of Chunk new
// tokens over Prefix already-present ones, or a decode step (Chunk == 1
// over the request's context). Prefix counts every token whose KV already
// exists — previously prefilled chunks plus prompt tokens served from the
// shared prefix cache — so the attention cost over them is charged but
// their projection/FFN compute is never re-done.
type Item struct {
	Req       *request.Request
	IsPrefill bool
	// Lane is the forming engine's slot index for the request (zero when
	// formed outside an engine); formers copy it through unchanged.
	Lane   int32
	Chunk  int
	Prefix int
}

// Tokens returns the new tokens this item contributes to the iteration.
func (it Item) Tokens() int { return it.Chunk }

// ChunkWork converts the item to the GPU timer's work descriptor.
func (it Item) ChunkWork() gpu.ChunkWork {
	return gpu.ChunkWork{PrefixLen: it.Prefix, ChunkLen: it.Chunk}
}

// ToChunkWork converts a batch to GPU work descriptors.
func ToChunkWork(items []Item) []gpu.ChunkWork {
	return AppendChunkWork(nil, items)
}

// AppendChunkWork appends a batch's GPU work descriptors to dst, reusing
// its capacity (hot-path variant of ToChunkWork).
func AppendChunkWork(dst []gpu.ChunkWork, items []Item) []gpu.ChunkWork {
	for _, it := range items {
		dst = append(dst, it.ChunkWork())
	}
	return dst
}

// TotalTokens sums the new tokens across items.
func TotalTokens(items []Item) int {
	n := 0
	for _, it := range items {
		n += it.Chunk
	}
	return n
}

// Decode is one step of a round's decode sequence, the round's decode
// steps in lane order: the context length of a fast decode, which a
// microbatch prices in its aggregate Microbatch.Dec term with no Item, or
// its bitwise complement for a decode that is an Item. A former takes the
// sequence ahead of the round's items, whose first entries are the item
// decodes in sequence order, one per complemented step; the items past
// them (prefill chunks) follow the whole decode run.
type Decode int32

// FastDecode is a fast decode step over ctx tokens of context.
func FastDecode(ctx int) Decode { return Decode(ctx) }

// ItemDecode is a decode step over ctx tokens of context that is an Item.
func ItemDecode(ctx int) Decode { return ^Decode(ctx) }

// IsItem reports whether the step is an Item.
func (d Decode) IsItem() bool { return d < 0 }

// Ctx returns the step's context length.
func (d Decode) Ctx() int {
	if d < 0 {
		return int(^d)
	}
	return int(d)
}

// SumDecodes sums a decode run's fast steps and counts its item steps.
func SumDecodes(dec []Decode) (fast gpu.DecodeSum, items int) {
	ctx := 0
	for _, d := range dec {
		m := int(d >> 31) // −1 for an item step, 0 for a fast one
		items -= m
		ctx += (int(d) + 1) &^ m
	}
	return gpu.DecodeSum{N: len(dec) - items, Context: ctx}, items
}

// ItemDecodes counts a decode run's item steps.
func ItemDecodes(dec []Decode) int {
	n := 0
	for _, d := range dec {
		n += int(uint32(d) >> 31)
	}
	return n
}

// Microbatch is one pipeline microbatch: Items, each priced as its own
// chunk, and Dec, fast decode steps priced as one aggregate term (see
// gpu.Timer.Time).
type Microbatch struct {
	Items []Item
	Dec   gpu.DecodeSum
}

// Tokens returns the new tokens the microbatch contributes.
func (mb Microbatch) Tokens() int { return TotalTokens(mb.Items) + mb.Dec.N }

// Budget bounds one iteration's batch.
type Budget struct {
	// MaxTokens is the iteration token budget (chunked-prefill knob).
	MaxTokens int
	// MaxSeqs bounds the number of requests in a batch (0 = unlimited).
	MaxSeqs int
}

// DefaultBudget mirrors the tuned vLLM configuration of §5.1: the token
// budget bounds iteration latency; the sequence cap is set high enough
// that admission is governed by KVCache capacity, not the scheduler.
func DefaultBudget() Budget { return Budget{MaxTokens: 2048, MaxSeqs: 1024} }

// FormIteration builds one iteration batch: every decode-ready request
// contributes one token (decode priority, as in vLLM's scheduler), then
// prefill chunks are packed FCFS into the remaining token budget, chunking
// the last request to fit. Requests already done or still waiting stay
// untouched. Prompt tokens served from the shared prefix cache are part of
// PrefilledTokens at admission, so cache hits never occupy budget here:
// the iteration former only sees (and schedules) the chunks left to
// compute.
func FormIteration(decodes, prefills []*request.Request, b Budget) []Item {
	pk := NewPacker(b)
	var items []Item
	for _, r := range decodes[:pk.Decodes(len(decodes))] {
		items = append(items, Item{Req: r, Chunk: 1, Prefix: r.ContextLen()})
	}
	for _, r := range prefills {
		chunk, ok := pk.Prefill(r.RemainingPrefill())
		if !ok {
			break
		}
		if chunk > 0 {
			items = append(items, Item{Req: r, IsPrefill: true, Chunk: chunk, Prefix: r.PrefilledTokens})
		}
	}
	return items
}

// Packer sizes one iteration against a budget in FormIteration's order:
// decode steps first, one token and one sequence each, then prefill chunks
// FCFS into the remaining token budget, the last one chunked to fit. An
// engine that builds items from its own state packs through it, so its
// batches match FormIteration's by construction.
type Packer struct {
	b            Budget
	tokens, seqs int
}

// NewPacker starts an empty iteration under b.
func NewPacker(b Budget) Packer {
	if b.MaxTokens <= 0 {
		panic(fmt.Sprintf("batching: MaxTokens = %d", b.MaxTokens))
	}
	return Packer{b: b}
}

// Decodes admits up to n decode steps and returns how many fit.
func (p *Packer) Decodes(n int) int {
	fit := p.b.MaxTokens - p.tokens
	if p.b.MaxSeqs > 0 {
		fit = min(fit, p.b.MaxSeqs-p.seqs)
	}
	n = max(0, min(n, fit))
	p.tokens += n
	p.seqs += n
	return n
}

// Prefill sizes the next prefill chunk for a request with rem prompt
// tokens left: ok is false once the budget is full (stop packing), and
// chunk is 0 for a request with nothing left to prefill (skip it).
func (p *Packer) Prefill(rem int) (chunk int, ok bool) {
	if p.tokens >= p.b.MaxTokens || (p.b.MaxSeqs > 0 && p.seqs >= p.b.MaxSeqs) {
		return 0, false
	}
	if rem <= 0 {
		return 0, true
	}
	chunk = min(rem, p.b.MaxTokens-p.tokens)
	p.tokens += chunk
	p.seqs++
	return chunk, true
}

// Split is reusable microbatch-formation scratch: a flat item buffer that
// split items are written into, and the microbatch headers a former
// returns. The microbatches a former forms into a Split alias the Split or
// the input items, and stay valid until the next formation on the same
// Split; the input items are never written. One Split serves one caller at
// a time (an engine owns one, since it runs one round at a time). The zero
// value is ready to use; once its buffers have grown to a workload's batch
// sizes, formation allocates nothing.
type Split struct {
	buf   []Item
	mbs   []Microbatch
	ends  []mbEnd
	costs []float64
}

// mbEnd is where a microbatch ends in Split.buf, and its fast decodes.
type mbEnd struct {
	end int
	dec gpu.DecodeSum
}

// Reset empties the scratch for a new formation, keeping its capacity.
// Earlier results are invalid from here on.
func (s *Split) Reset() {
	s.buf, s.mbs, s.ends = s.buf[:0], s.mbs[:0], s.ends[:0]
}

// Whole resets s and returns the batch as the only microbatch, or nil when
// it holds no work: the unsplit result formers give single-stage groups.
func (s *Split) Whole(dec []Decode, items []Item) []Microbatch {
	s.Reset()
	fast, _ := SumDecodes(dec)
	if len(items) == 0 && fast.N == 0 {
		return nil
	}
	return s.Emit(Microbatch{Items: items, Dec: fast})
}

// Costs returns n float slots of scratch, valid until the next Costs call
// on s: room for a former's per-step costs.
func (s *Split) Costs(n int) []float64 {
	if cap(s.costs) < n {
		s.costs = make([]float64, n)
	}
	s.costs = s.costs[:n]
	return s.costs
}

// Emit appends mb as the next microbatch and returns all microbatches
// formed since the last Reset.
func (s *Split) Emit(mb Microbatch) []Microbatch {
	s.mbs = append(s.mbs, mb)
	return s.mbs
}

// Join copies a ++ [it] ++ b into the scratch buffer and returns the copy,
// capped so appending to it can never overwrite later scratch. Formers
// use it for the two halves around a prefill item cut in two.
func (s *Split) Join(a []Item, it Item, b []Item) []Item {
	start := len(s.buf)
	s.buf = append(s.buf, a...)
	s.buf = append(s.buf, it)
	s.buf = append(s.buf, b...)
	return s.buf[start:len(s.buf):len(s.buf)]
}

// SplitByTokenCount partitions a batch into at most m microbatches with
// near-equal token counts, preserving request order and chunking prefill
// items across the boundary when needed — the state-of-the-art
// token-count-based formulation (Figure 9 (a)/(b)). The batch is the
// decode sequence dec followed by the items past its item decodes (see
// Decode). Decode steps are single tokens and never split, so the decode
// run is cut at counts: each side's fast decodes are summed into its
// Microbatch.Dec and its item decodes copied, with no per-token item. The
// microbatches are formed into s (see Split).
func SplitByTokenCount(s *Split, dec []Decode, items []Item, m int) []Microbatch {
	if m <= 0 {
		panic(fmt.Sprintf("batching: split into %d microbatches", m))
	}
	nd := ItemDecodes(dec)
	total := len(dec) + TotalTokens(items[nd:])
	if total == 0 || m == 1 {
		return s.Whole(dec, items)
	}
	s.Reset()
	target := (total + m - 1) / m
	// The microbatches are consecutive runs of s.buf; s.ends records where
	// each one ends and its fast decodes, and the headers are cut once the
	// buffer stops growing.
	start, curTokens := 0, 0
	var cur gpu.DecodeSum
	cut := func() {
		if n := len(s.buf); n > start || cur.N > 0 {
			s.ends = append(s.ends, mbEnd{end: n, dec: cur})
			start = n
		}
		curTokens, cur = 0, gpu.DecodeSum{}
	}
	for a := 0; a < len(dec); {
		space := target - curTokens
		if space <= 0 {
			cut()
			space = target
		}
		b := min(a+space, len(dec))
		run, k := SumDecodes(dec[a:b])
		cur.N += run.N
		cur.Context += run.Context
		s.buf = append(s.buf, items[:k]...)
		items = items[k:]
		curTokens += b - a
		a = b
	}
	for _, it := range items {
		remaining := it
		for remaining.Chunk > 0 {
			space := target - curTokens
			if space <= 0 {
				cut()
				space = target
			}
			if remaining.Chunk <= space || !remaining.IsPrefill {
				s.buf = append(s.buf, remaining)
				curTokens += remaining.Chunk
				remaining.Chunk = 0
			} else {
				head := remaining
				head.Chunk = space
				s.buf = append(s.buf, head)
				curTokens += space
				remaining.Prefix += space
				remaining.Chunk -= space
				cut()
			}
		}
	}
	cut()
	// Never exceed m microbatches: merge the tail if chunk-splitting
	// produced an extra one (the runs are adjacent, so dropping the last
	// interior cuts and summing their decodes is the merge).
	if len(s.ends) > m {
		last := &s.ends[m-1]
		for _, e := range s.ends[m:] {
			last.end = e.end
			last.dec.N += e.dec.N
			last.dec.Context += e.dec.Context
		}
		s.ends = s.ends[:m]
	}
	start = 0
	for _, e := range s.ends {
		s.mbs = append(s.mbs, Microbatch{Items: s.buf[start:e.end:e.end], Dec: e.dec})
		start = e.end
	}
	return s.mbs
}
