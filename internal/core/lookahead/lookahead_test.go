package lookahead

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"kunserve/internal/batching"
	"kunserve/internal/costmodel"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/request"
)

func fittedFormer(t *testing.T) (*Former, *gpu.Timer) {
	t.Helper()
	timer := gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)
	m, err := costmodel.FitFromTimer(timer)
	if err != nil {
		t.Fatal(err)
	}
	return &Former{Model: m}, timer
}

func prefillItem(id, tokens int) batching.Item {
	r := request.New(id, 0, tokens, 8)
	return batching.Item{Req: r, IsPrefill: true, Chunk: tokens, Prefix: 0}
}

func decodeItem(id, ctx int) batching.Item {
	r := request.New(id, 0, ctx, 8)
	r.SetState(request.StateRunning)
	r.AdvancePrefill(ctx, 1)
	return batching.Item{Req: r, Chunk: 1, Prefix: ctx}
}

func tokensOf(mbs []batching.Microbatch) int {
	n := 0
	for _, mb := range mbs {
		n += mb.Tokens()
	}
	return n
}

// fastDecodes is a decode sequence of n fast steps over ctx, ctx+step, ...
func fastDecodes(n, ctx, step int) []batching.Decode {
	dec := make([]batching.Decode, n)
	for i := range dec {
		dec[i] = batching.FastDecode(ctx + i*step)
	}
	return dec
}

func TestSingleStageUnsplit(t *testing.T) {
	f, _ := fittedFormer(t)
	items := []batching.Item{prefillItem(1, 4096)}
	mbs := f.Form(&batching.Split{}, nil, items, 1)
	if len(mbs) != 1 || mbs[0].Tokens() != 4096 {
		t.Fatalf("single stage split: %d microbatches", len(mbs))
	}
	if f.String() == "" {
		t.Error("empty String")
	}
}

func TestEmptyBatch(t *testing.T) {
	f, _ := fittedFormer(t)
	if got := f.Form(&batching.Split{}, nil, nil, 2); got != nil {
		t.Fatal("empty batch should return nil")
	}
}

func TestNilModelPanics(t *testing.T) {
	f := &Former{}
	defer func() {
		if recover() == nil {
			t.Error("nil model did not panic")
		}
	}()
	f.Form(&batching.Split{}, nil, []batching.Item{prefillItem(1, 100)}, 2)
}

func TestConservesTokensAndPrefixes(t *testing.T) {
	f, _ := fittedFormer(t)
	items := []batching.Item{
		prefillItem(1, 3000), prefillItem(2, 500),
		decodeItem(3, 900), decodeItem(4, 4000), prefillItem(5, 6000),
	}
	before := batching.TotalTokens(items)
	mbs := f.Form(&batching.Split{}, nil, items, 2)
	if tokensOf(mbs) != before {
		t.Fatalf("tokens %d -> %d", before, tokensOf(mbs))
	}
	// Chunked prefills keep consecutive prefixes.
	next := map[*request.Request]int{}
	for _, mb := range mbs {
		for _, it := range mb.Items {
			if want, ok := next[it.Req]; ok && it.Prefix != want {
				t.Fatalf("request %d prefix %d, want %d", it.Req.ID, it.Prefix, want)
			}
			next[it.Req] = it.Prefix + it.Chunk
		}
	}
}

// The headline behaviour (Figure 9 (c)): cost balance beats token-count
// balance when request lengths are skewed, because attention is quadratic.
func TestBalancesCostBetterThanTokenCount(t *testing.T) {
	f, timer := fittedFormer(t)
	// One 7K-token request plus many small ones: token-count splitting
	// puts the huge request's tail chunk (with its quadratic prefix
	// attention) in one microbatch, imbalancing true execution time.
	items := []batching.Item{
		prefillItem(1, 7000), prefillItem(2, 500), prefillItem(3, 500),
		prefillItem(4, 500), prefillItem(5, 500),
	}
	stages := 2

	la := f.Form(&batching.Split{}, nil, items, stages)
	tc := batching.SplitByTokenCount(&batching.Split{}, nil, items, stages*2)

	spread := func(mbs []batching.Microbatch) float64 {
		var max, min float64 = 0, 1e18
		for _, mb := range mbs {
			d := timer.Time(batching.ToChunkWork(mb.Items), mb.Dec).Seconds()
			if d > max {
				max = d
			}
			if d < min {
				min = d
			}
		}
		return max - min
	}
	laSpread, tcSpread := spread(la), spread(tc)
	if laSpread >= tcSpread {
		t.Errorf("lookahead spread %.4fs >= token-count %.4fs", laSpread, tcSpread)
	}
}

func TestProducesEnoughMicrobatchesForPipeline(t *testing.T) {
	f, _ := fittedFormer(t)
	items := []batching.Item{prefillItem(1, 8192)}
	mbs := f.Form(&batching.Split{}, nil, items, 4)
	if len(mbs) < 4 {
		t.Errorf("microbatches = %d, want >= stages (4)", len(mbs))
	}
}

func TestMinTokensHaltsRecursion(t *testing.T) {
	f, _ := fittedFormer(t)
	f.MinTokens = 100000 // absurdly high: nothing should split (floor shrinks it)
	items := []batching.Item{prefillItem(1, 2048)}
	mbs := f.Form(&batching.Split{}, nil, items, 2)
	// The dynamic floor still guarantees the pipeline at least 2.
	if len(mbs) < 2 {
		t.Errorf("microbatches = %d", len(mbs))
	}
	// With a single decode step, fast or an item, nothing can split.
	d := decodeItem(2, 50)
	for _, dec := range []batching.Decode{batching.FastDecode(50), batching.ItemDecode(50)} {
		var items []batching.Item
		if dec.IsItem() {
			items = []batching.Item{d}
		}
		if one := f.Form(&batching.Split{}, []batching.Decode{dec}, items, 2); len(one) != 1 || one[0].Tokens() != 1 {
			t.Errorf("unsplittable batch split into %d", len(one))
		}
	}
}

// A batch of 64 fast decode steps splits into aggregate-only microbatches
// that together carry every step exactly once.
func TestDecodeOnlyBatchSplits(t *testing.T) {
	f, _ := fittedFormer(t)
	dec := fastDecodes(64, 1000, 0)
	mbs := f.Form(&batching.Split{}, dec, nil, 2)
	if len(mbs) < 2 {
		t.Fatalf("decode batch microbatches = %d", len(mbs))
	}
	var sum gpu.DecodeSum
	for _, mb := range mbs {
		if len(mb.Items) != 0 {
			t.Fatalf("fast decodes became %d items", len(mb.Items))
		}
		sum.N += mb.Dec.N
		sum.Context += mb.Dec.Context
	}
	if want := (gpu.DecodeSum{N: 64, Context: 64 * 1001}); sum != want {
		t.Fatalf("microbatches sum to %+v, want %+v", sum, want)
	}
}

// Property: Form conserves tokens, produces non-empty microbatches, and
// keeps per-request chunk ordering for any mix of work.
func TestPropertyFormConservation(t *testing.T) {
	f, _ := fittedFormer(t)
	check := func(pLens []uint16, nDecode uint8, stages8 uint8) bool {
		stages := 1 + int(stages8)%4
		dec := fastDecodes(int(nDecode)%32, 100, 1)
		var items []batching.Item
		for i, l := range pLens {
			if i >= 16 {
				break
			}
			items = append(items, prefillItem(i, 1+int(l)%8000))
		}
		if len(dec)+len(items) == 0 {
			return true
		}
		before := len(dec) + batching.TotalTokens(items)
		mbs := f.Form(&batching.Split{}, dec, items, stages)
		if tokensOf(mbs) != before {
			return false
		}
		next := map[*request.Request]int{}
		for _, mb := range mbs {
			if len(mb.Items) == 0 && mb.Dec.N == 0 {
				return false
			}
			for _, it := range mb.Items {
				if it.Chunk <= 0 {
					return false
				}
				if want, ok := next[it.Req]; ok && it.IsPrefill && it.Prefix != want {
					return false
				}
				next[it.Req] = it.Prefix + it.Chunk
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedFormerConcurrentForm checks that a Former keeps no per-call
// state: one Former — the policy-owned instance every group of a cluster
// shares — forms microbatches from many goroutines at once, each into its
// own Split, the way every engine brings its own scratch. The cost model
// is read-only, so this is race-free and every goroutine gets
// bit-identical splits (run with -race to enforce). The sequential result
// is the oracle.
func TestSharedFormerConcurrentForm(t *testing.T) {
	f, _ := fittedFormer(t)

	dec := fastDecodes(24, 256, 64)
	var items []batching.Item
	for i := 0; i < 24; i += 6 {
		dec[i] = batching.ItemDecode(256 + 64*i)
		items = append(items, decodeItem(i, 256+64*i))
	}
	items = append(items, prefillItem(100, 3000), prefillItem(101, 1200))

	want := f.Form(&batching.Split{}, dec, items, 2)

	const workers = 8
	got := make([][]batching.Microbatch, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s batching.Split
			for iter := 0; iter < 50; iter++ {
				got[w] = f.Form(&s, dec, items, 2)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("worker %d split differs from sequential", w)
		}
	}
}
