package lookahead

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kunserve/internal/batching"
	"kunserve/internal/request"
)

// refForm, refBalance and refSplit are the allocating divide-and-conquer
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
	if batching.TotalTokens(b) <= minTokens || !splittable(b) {
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
				got := f.Form(&s, items, stages)
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
	var items []batching.Item
	for i := 0; i < 32; i++ {
		items = append(items, decodeItem(i, 256+64*i))
	}
	items = append(items, prefillItem(100, 3000), prefillItem(101, 1200))
	var s batching.Split
	f.Form(&s, items, 4)
	if avg := testing.AllocsPerRun(100, func() { f.Form(&s, items, 4) }); avg != 0 {
		t.Fatalf("a warmed-up Form allocates %.2f times", avg)
	}
}
