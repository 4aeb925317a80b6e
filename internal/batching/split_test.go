package batching

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/request"
)

// refSplitByTokenCount is the allocating token-count split SplitByTokenCount
// replaced, kept as its oracle: every microbatch is a fresh slice.
func refSplitByTokenCount(items []Item, m int) [][]Item {
	total := TotalTokens(items)
	if total == 0 || m == 1 {
		if len(items) == 0 {
			return nil
		}
		return [][]Item{items}
	}
	target := (total + m - 1) / m
	var out [][]Item
	var cur []Item
	curTokens := 0
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
			curTokens = 0
		}
	}
	for _, it := range items {
		remaining := it
		for remaining.Chunk > 0 {
			space := target - curTokens
			if space <= 0 {
				flush()
				space = target
			}
			if remaining.Chunk <= space || !remaining.IsPrefill {
				cur = append(cur, remaining)
				curTokens += remaining.Chunk
				remaining.Chunk = 0
			} else {
				head := remaining
				head.Chunk = space
				cur = append(cur, head)
				curTokens += space
				remaining.Prefix += space
				remaining.Chunk -= space
				flush()
			}
		}
	}
	flush()
	for len(out) > m {
		last := out[len(out)-1]
		out = out[:len(out)-1]
		out[len(out)-1] = append(out[len(out)-1], last...)
	}
	return out
}

// randomMix draws an iteration batch of up to 40 decode steps and prefill
// chunks in random order, with lane indices to check they are copied
// through.
func randomMix(rng *rand.Rand) []Item {
	items := make([]Item, rng.Intn(41))
	for i := range items {
		it := Item{Req: request.New(i, 0, 1, 1), Lane: int32(rng.Intn(64))}
		if rng.Intn(2) == 0 {
			it.Chunk, it.Prefix = 1, 1+rng.Intn(8000)
		} else {
			it.IsPrefill = true
			it.Chunk, it.Prefix = 1+rng.Intn(1<<uint(1+rng.Intn(13))), rng.Intn(4000)
		}
		items[i] = it
	}
	return items
}

// SplitByTokenCount forms exactly the oracle's microbatches for every mix,
// stage count and microbatches-per-stage setting, through one reused Split,
// and never writes its input.
func TestSplitByTokenCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Split
	for c := 0; c < 300; c++ {
		items := randomMix(rng)
		before := slices.Clone(items)
		for stages := 1; stages <= 8; stages++ {
			for _, per := range []int{1, 2} {
				m := stages * per
				want := refSplitByTokenCount(slices.Clone(items), m)
				got := itemsOf(t, SplitByTokenCount(&s, nil, items, m))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d, m=%d: microbatches differ from the reference\n got %v\nwant %v",
						c, m, shape(got), shape(want))
				}
				if !slices.Equal(items, before) {
					t.Fatalf("case %d, m=%d: input items were written", c, m)
				}
			}
		}
	}
}

// itemsOf returns microbatches without decode sequences as item lists.
func itemsOf(t *testing.T, mbs []Microbatch) [][]Item {
	t.Helper()
	if mbs == nil {
		return nil
	}
	out := make([][]Item, len(mbs))
	for k, mb := range mbs {
		if mb.Dec.N != 0 {
			t.Fatalf("microbatch %d holds %d aggregate decodes with no decode sequence", k, mb.Dec.N)
		}
		out[k] = mb.Items
	}
	return out
}

// randomDecodeBatch draws a round as an engine hands it to a former: up to
// 300 decode steps in lane order, each fast or an item, then up to four
// prefill chunks. It returns the decode sequence, the items (item decodes,
// then prefills) and the batch expanded to one item per step, the form
// every round took before decode sequences; the expansion's fast steps
// are the items with no request.
func randomDecodeBatch(rng *rand.Rand) (dec []Decode, items, expanded []Item) {
	var prefills []Item
	for i := rng.Intn(5); i > 0; i-- {
		prefills = append(prefills, Item{Req: request.New(1000+i, 0, 1, 1), IsPrefill: true,
			Chunk: 1 + rng.Intn(1<<uint(1+rng.Intn(12))), Prefix: rng.Intn(4000)})
	}
	fastShare := rng.Intn(5) // all items (0) through all fast (4)
	for i := rng.Intn(301); i > 0; i-- {
		ctx := 1 + rng.Intn(8000)
		if rng.Intn(4) < fastShare {
			dec = append(dec, FastDecode(ctx))
			expanded = append(expanded, Item{Lane: -1, Chunk: 1, Prefix: ctx})
			continue
		}
		it := Item{Req: request.New(i, 0, 1, 1), Lane: int32(i), Chunk: 1, Prefix: ctx}
		dec = append(dec, ItemDecode(ctx))
		items = append(items, it)
		expanded = append(expanded, it)
	}
	items = append(items, prefills...)
	expanded = append(expanded, prefills...)
	return dec, items, expanded
}

// checkExpanded checks microbatches formed from a decode sequence against
// the reference's microbatches of the expanded batch (see
// randomDecodeBatch): the same count, each with the reference's items
// less its fast steps, a Dec summing exactly those steps, the same timer
// duration and the same activation tokens.
func checkExpanded(t *testing.T, label string, timer *gpu.Timer, got []Microbatch, want [][]Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d microbatches, reference %d", label, len(got), len(want))
	}
	for k, ref := range want {
		var items []Item
		var dec gpu.DecodeSum
		for _, it := range ref {
			if it.Req == nil {
				dec.N++
				dec.Context += it.Prefix + 1
				continue
			}
			items = append(items, it)
		}
		mb := got[k]
		if !slices.Equal(mb.Items, items) || mb.Dec != dec {
			t.Fatalf("%s: microbatch %d: %d items and %+v, reference %d items and %+v",
				label, k, len(mb.Items), mb.Dec, len(items), dec)
		}
		if a, b := timer.Time(ToChunkWork(mb.Items), mb.Dec), timer.Time(ToChunkWork(ref), gpu.DecodeSum{}); a != b {
			t.Fatalf("%s: microbatch %d times %v, reference %v", label, k, a, b)
		}
		if a, b := mb.Tokens(), TotalTokens(ref); a != b {
			t.Fatalf("%s: microbatch %d forwards %d activation tokens, reference %d", label, k, a, b)
		}
	}
}

// SplitByTokenCount over a decode sequence of fast and item steps forms
// exactly the reference's microbatches of the batch with one item per
// step, for every stage count and microbatches-per-stage setting.
func TestSplitDecodeSequenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := model.Qwen25_14B()
	timer := gpu.NewTimer(gpu.A800(), cfg.Partial(cfg.Layers/2), 1)
	var s Split
	for c := 0; c < 300; c++ {
		dec, items, expanded := randomDecodeBatch(rng)
		for stages := 1; stages <= 4; stages++ {
			for _, per := range []int{1, 2} {
				m := stages * per
				want := refSplitByTokenCount(slices.Clone(expanded), m)
				got := SplitByTokenCount(&s, dec, items, m)
				checkExpanded(t, fmt.Sprintf("case %d, m=%d", c, m), timer, got, want)
			}
		}
	}
}

// shape summarizes microbatches as their per-item token counts.
func shape(mbs [][]Item) string {
	out := ""
	for _, mb := range mbs {
		toks := make([]int, len(mb))
		for i, it := range mb {
			toks[i] = it.Chunk
		}
		out += fmt.Sprint(toks)
	}
	return out
}

// Once a Split has grown to a batch's size, splitting a decode sequence
// and its items allocates nothing.
func TestSplitByTokenCountAllocatesNothing(t *testing.T) {
	var dec []Decode
	var items []Item
	for i := 0; i < 40; i++ {
		if i%5 == 0 {
			dec = append(dec, ItemDecode(100+i))
			items = append(items, Item{Chunk: 1, Prefix: 100 + i})
		} else {
			dec = append(dec, FastDecode(100+i))
		}
	}
	for i := 0; i < 8; i++ {
		items = append(items, Item{IsPrefill: true, Chunk: 300 + 97*i})
	}
	var s Split
	SplitByTokenCount(&s, dec, items, 8)
	if avg := testing.AllocsPerRun(100, func() { SplitByTokenCount(&s, dec, items, 8) }); avg != 0 {
		t.Fatalf("a warmed-up split allocates %.2f times", avg)
	}
}
