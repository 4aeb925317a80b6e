package lookahead

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/request"
)

// refForm, refBalance, refSplittable and refSplit are the allocating divide-and-conquer
// Form replaced, kept as its oracle: every half is a fresh slice.
func refForm(f *Former, items []batching.Item, stages int) [][]batching.Item {
	if len(items) == 0 {
		return nil
	}
	if stages <= 1 {
		return [][]batching.Item{items}
	}
	min := f.MinTokens
	if min <= 0 {
		min = DefaultMinTokens
	}
	total := batching.TotalTokens(items)
	if floor := total / (2 * stages); floor < min && floor >= 1 {
		min = floor
	}
	if min < 1 {
		min = 1
	}
	return refBalance(f, items, min)
}

func refBalance(f *Former, b []batching.Item, minTokens int) [][]batching.Item {
	if batching.TotalTokens(b) <= minTokens || !refSplittable(b) {
		return [][]batching.Item{b}
	}
	var sum float64
	for _, it := range b {
		sum += f.itemCost(it)
	}
	left, right := refSplit(f, b, 0.5*sum)
	if len(left) == 0 || len(right) == 0 {
		return [][]batching.Item{b}
	}
	out := refBalance(f, left, minTokens)
	out = append(out, refBalance(f, right, minTokens)...)
	return out
}

// refSplittable reports whether the batch can be divided at all: more
// than one item, or a prefill item with more than one token.
func refSplittable(b []batching.Item) bool {
	if len(b) > 1 {
		return true
	}
	return len(b) == 1 && b[0].IsPrefill && b[0].Chunk > 1
}

func refSplit(f *Former, b []batching.Item, targetCost float64) (left, right []batching.Item) {
	acc := 0.0
	for i, it := range b {
		c := f.itemCost(it)
		if acc+c <= targetCost {
			left = append(left, it)
			acc += c
			continue
		}
		if !it.IsPrefill || it.Chunk <= 1 {
			right = append(right, b[i:]...)
			return left, right
		}
		cut := f.cutTokens(it, targetCost-acc)
		switch {
		case cut <= 0:
			right = append(right, b[i:]...)
		case cut >= it.Chunk:
			left = append(left, it)
			right = append(right, b[i+1:]...)
		default:
			head, tail := it, it
			head.Chunk = cut
			tail.Prefix += cut
			tail.Chunk -= cut
			left = append(left, head)
			right = append(right, tail)
			right = append(right, b[i+1:]...)
		}
		return left, right
	}
	return left, right
}

// randomMix draws an iteration batch of up to 40 decode steps and prefill
// chunks in random order, with lane indices to check they are copied
// through.
func randomMix(rng *rand.Rand) []batching.Item {
	items := make([]batching.Item, rng.Intn(41))
	for i := range items {
		it := batching.Item{Req: request.New(i, 0, 1, 1), Lane: int32(rng.Intn(64))}
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

// Form emits exactly the oracle's microbatches for every mix, stage count
// and recursion floor, through one reused Split, and never writes its
// input.
func TestFormMatchesReference(t *testing.T) {
	f, _ := fittedFormer(t)
	rng := rand.New(rand.NewSource(7))
	var s batching.Split
	for c := 0; c < 100; c++ {
		items := randomMix(rng)
		before := slices.Clone(items)
		for _, minTokens := range []int{0, 1, 64, 512} {
			f.MinTokens = minTokens
			for stages := 1; stages <= 8; stages++ {
				want := refForm(f, slices.Clone(items), stages)
				got := itemsOf(t, f.Form(&s, nil, items, stages))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d, min=%d, stages=%d: microbatches differ from the reference\n got %v\nwant %v",
						c, minTokens, stages, shape(got), shape(want))
				}
				if !slices.Equal(items, before) {
					t.Fatalf("case %d, min=%d, stages=%d: input items were written", c, minTokens, stages)
				}
			}
		}
	}
}

// itemsOf returns microbatches without decode sequences as item lists.
func itemsOf(t *testing.T, mbs []batching.Microbatch) [][]batching.Item {
	t.Helper()
	if mbs == nil {
		return nil
	}
	out := make([][]batching.Item, len(mbs))
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
func randomDecodeBatch(rng *rand.Rand) (dec []batching.Decode, items, expanded []batching.Item) {
	var prefills []batching.Item
	for i := rng.Intn(5); i > 0; i-- {
		prefills = append(prefills, batching.Item{Req: request.New(1000+i, 0, 1, 1), IsPrefill: true,
			Chunk: 1 + rng.Intn(1<<uint(1+rng.Intn(12))), Prefix: rng.Intn(4000)})
	}
	fastShare := rng.Intn(5) // all items (0) through all fast (4)
	for i := rng.Intn(301); i > 0; i-- {
		ctx := 1 + rng.Intn(8000)
		if rng.Intn(4) < fastShare {
			dec = append(dec, batching.FastDecode(ctx))
			expanded = append(expanded, batching.Item{Lane: -1, Chunk: 1, Prefix: ctx})
			continue
		}
		it := batching.Item{Req: request.New(i, 0, 1, 1), Lane: int32(i), Chunk: 1, Prefix: ctx}
		dec = append(dec, batching.ItemDecode(ctx))
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
func checkExpanded(t *testing.T, label string, timer *gpu.Timer, got []batching.Microbatch, want [][]batching.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d microbatches, reference %d", label, len(got), len(want))
	}
	for k, ref := range want {
		var items []batching.Item
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
		if a, b := timer.Time(batching.ToChunkWork(mb.Items), mb.Dec), timer.Time(batching.ToChunkWork(ref), gpu.DecodeSum{}); a != b {
			t.Fatalf("%s: microbatch %d times %v, reference %v", label, k, a, b)
		}
		if a, b := mb.Tokens(), batching.TotalTokens(ref); a != b {
			t.Fatalf("%s: microbatch %d forwards %d activation tokens, reference %d", label, k, a, b)
		}
	}
}

// Form over a decode sequence of fast and item steps emits exactly the
// reference's microbatches of the batch with one item per step — the same
// float sums, so the same cut points — for every stage count and
// recursion floor.
func TestFormDecodeSequenceMatchesReference(t *testing.T) {
	f, _ := fittedFormer(t)
	cfg := model.Qwen25_14B()
	timer := gpu.NewTimer(gpu.A800(), cfg.Partial(cfg.Layers/2), 1)
	rng := rand.New(rand.NewSource(11))
	var s batching.Split
	for c := 0; c < 200; c++ {
		dec, items, expanded := randomDecodeBatch(rng)
		for _, minTokens := range []int{0, 1, 16, 64} {
			f.MinTokens = minTokens
			for stages := 1; stages <= 4; stages++ {
				want := refForm(f, slices.Clone(expanded), stages)
				got := f.Form(&s, dec, items, stages)
				checkExpanded(t, fmt.Sprintf("case %d, min=%d, stages=%d", c, minTokens, stages), timer, got, want)
			}
		}
	}
}

// shape summarizes microbatches as their per-item token counts.
func shape(mbs [][]batching.Item) string {
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

// Once a Split has grown to a batch's size, forming allocates nothing,
// including the copies around cut prefill items.
func TestFormAllocatesNothing(t *testing.T) {
	f, _ := fittedFormer(t)
	dec := fastDecodes(32, 256, 64)
	var items []batching.Item
	for i := 0; i < 32; i += 5 {
		dec[i] = batching.ItemDecode(256 + 64*i)
		items = append(items, decodeItem(i, 256+64*i))
	}
	items = append(items, prefillItem(100, 3000), prefillItem(101, 1200))
	var s batching.Split
	f.Form(&s, dec, items, 4)
	if avg := testing.AllocsPerRun(100, func() { f.Form(&s, dec, items, 4) }); avg != 0 {
		t.Fatalf("a warmed-up Form allocates %.2f times", avg)
	}
}
