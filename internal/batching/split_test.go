package batching

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
				got := SplitByTokenCount(&s, items, m)
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

// Once a Split has grown to a batch's size, splitting allocates nothing.
func TestSplitByTokenCountAllocatesNothing(t *testing.T) {
	var items []Item
	for i := 0; i < 32; i++ {
		items = append(items, Item{Chunk: 1, Prefix: 100 + i})
	}
	for i := 0; i < 8; i++ {
		items = append(items, Item{IsPrefill: true, Chunk: 300 + 97*i})
	}
	var s Split
	SplitByTokenCount(&s, items, 8)
	if avg := testing.AllocsPerRun(100, func() { SplitByTokenCount(&s, items, 8) }); avg != 0 {
		t.Fatalf("a warmed-up split allocates %.2f times", avg)
	}
}
