package batching

import (
	"slices"
	"testing"
	"testing/quick"

	"kunserve/internal/gpu"
	"kunserve/internal/request"
)

func prefillReq(id, inputLen int) *request.Request {
	r := request.New(id, 0, inputLen, 10)
	return r
}

func decodeReq(id, inputLen int) *request.Request {
	r := request.New(id, 0, inputLen, 10)
	r.SetState(request.StateRunning)
	r.AdvancePrefill(inputLen, 1)
	return r
}

func TestFormIterationDecodePriority(t *testing.T) {
	decodes := []*request.Request{decodeReq(1, 100), decodeReq(2, 200)}
	prefills := []*request.Request{prefillReq(3, 500)}
	items := FormIteration(decodes, prefills, Budget{MaxTokens: 301})
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].IsPrefill || items[1].IsPrefill {
		t.Fatal("decode items must come first")
	}
	if items[0].Chunk != 1 || items[0].Prefix != 100 {
		t.Fatalf("decode item = %+v", items[0])
	}
	// Remaining budget 299 chunks the 500-token prefill.
	if !items[2].IsPrefill || items[2].Chunk != 299 || items[2].Prefix != 0 {
		t.Fatalf("prefill item = %+v", items[2])
	}
	if TotalTokens(items) != 301 {
		t.Fatalf("total = %d", TotalTokens(items))
	}
}

func TestFormIterationBudgetStopsPrefill(t *testing.T) {
	prefills := []*request.Request{prefillReq(1, 1000), prefillReq(2, 1000)}
	items := FormIteration(nil, prefills, Budget{MaxTokens: 1000})
	if len(items) != 1 {
		t.Fatalf("items = %d, want 1 (budget exhausted)", len(items))
	}
	if items[0].Chunk != 1000 {
		t.Fatalf("chunk = %d", items[0].Chunk)
	}
}

func TestFormIterationPartialPrefillContinues(t *testing.T) {
	r := prefillReq(1, 1000)
	r.SetState(request.StateRunning)
	r.AdvancePrefill(600, 1)
	items := FormIteration(nil, []*request.Request{r}, Budget{MaxTokens: 2048})
	if len(items) != 1 {
		t.Fatal("no item for partially prefilled request")
	}
	if items[0].Chunk != 400 || items[0].Prefix != 600 {
		t.Fatalf("item = %+v, want chunk 400 prefix 600", items[0])
	}
}

func TestFormIterationMaxSeqs(t *testing.T) {
	var decodes []*request.Request
	for i := 0; i < 10; i++ {
		decodes = append(decodes, decodeReq(i, 10))
	}
	items := FormIteration(decodes, nil, Budget{MaxTokens: 2048, MaxSeqs: 4})
	if len(items) != 4 {
		t.Fatalf("items = %d, want 4 (MaxSeqs)", len(items))
	}
}

func TestFormIterationSkipsFinishedPrefills(t *testing.T) {
	done := decodeReq(1, 100) // prefill complete
	items := FormIteration(nil, []*request.Request{done}, Budget{MaxTokens: 100})
	if len(items) != 0 {
		t.Fatal("completed prefill produced an item")
	}
}

func TestFormIterationBadBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero budget did not panic")
		}
	}()
	FormIteration(nil, nil, Budget{})
}

func TestToChunkWork(t *testing.T) {
	items := []Item{
		{Chunk: 5, Prefix: 10, IsPrefill: true},
		{Chunk: 1, Prefix: 99},
	}
	w := ToChunkWork(items)
	if len(w) != 2 || w[0].ChunkLen != 5 || w[0].PrefixLen != 10 || w[1].ChunkLen != 1 {
		t.Fatalf("work = %+v", w)
	}
	if items[0].Tokens() != 5 {
		t.Fatal("Tokens()")
	}
}

func TestSplitByTokenCountEven(t *testing.T) {
	items := []Item{
		{Req: prefillReq(1, 400), IsPrefill: true, Chunk: 400},
		{Req: prefillReq(2, 400), IsPrefill: true, Chunk: 400},
	}
	mbs := SplitByTokenCount(&Split{}, nil, items, 2)
	if len(mbs) != 2 {
		t.Fatalf("microbatches = %d", len(mbs))
	}
	if mbs[0].Tokens() != 400 || mbs[1].Tokens() != 400 {
		t.Fatalf("token split = %d/%d", mbs[0].Tokens(), mbs[1].Tokens())
	}
}

func TestSplitByTokenCountChunksAcrossBoundary(t *testing.T) {
	// One 1000-token prefill into 4 microbatches: must be chunked with
	// increasing prefixes.
	items := []Item{{Req: prefillReq(1, 1000), IsPrefill: true, Chunk: 1000}}
	mbs := SplitByTokenCount(&Split{}, nil, items, 4)
	if len(mbs) != 4 {
		t.Fatalf("microbatches = %d", len(mbs))
	}
	wantPrefix := 0
	total := 0
	for i, mb := range mbs {
		if len(mb.Items) != 1 || mb.Dec.N != 0 {
			t.Fatalf("microbatch %d has %d items and %d decodes", i, len(mb.Items), mb.Dec.N)
		}
		it := mb.Items[0]
		if it.Prefix != wantPrefix {
			t.Fatalf("microbatch %d prefix = %d, want %d", i, it.Prefix, wantPrefix)
		}
		wantPrefix += it.Chunk
		total += it.Chunk
	}
	if total != 1000 {
		t.Fatalf("chunks sum to %d", total)
	}
}

// Seven decode steps, two of them items, cut at counts into three
// microbatches of three, three and one step; the fast steps ride each
// microbatch's aggregate term.
func TestSplitByTokenCountDecodeNeverSplit(t *testing.T) {
	var dec []Decode
	var items []Item
	for i := 0; i < 7; i++ {
		if i == 1 || i == 5 {
			dec = append(dec, ItemDecode(50+i))
			items = append(items, Item{Req: decodeReq(i, 50+i), Chunk: 1, Prefix: 50 + i})
		} else {
			dec = append(dec, FastDecode(50+i))
		}
	}
	mbs := SplitByTokenCount(&Split{}, dec, items, 3)
	want := []Microbatch{
		{Items: items[:1], Dec: gpu.DecodeSum{N: 2, Context: 51 + 53}},
		{Items: items[1:], Dec: gpu.DecodeSum{N: 2, Context: 54 + 55}},
		{Dec: gpu.DecodeSum{N: 1, Context: 57}},
	}
	if len(mbs) != len(want) {
		t.Fatalf("microbatches = %d, want %d", len(mbs), len(want))
	}
	total := 0
	for i, mb := range mbs {
		if mb.Dec != want[i].Dec || !slices.Equal(mb.Items, want[i].Items) {
			t.Fatalf("microbatch %d = %+v, want %+v", i, mb, want[i])
		}
		total += mb.Tokens()
	}
	if total != 7 {
		t.Fatalf("decodes lost: %d", total)
	}
	if len(mbs) > 3 {
		t.Fatalf("microbatches = %d > 3", len(mbs))
	}
}

func TestSplitEdgeCases(t *testing.T) {
	if got := SplitByTokenCount(&Split{}, nil, nil, 4); got != nil {
		t.Fatal("empty split")
	}
	items := []Item{{Req: prefillReq(1, 100), IsPrefill: true, Chunk: 100}}
	one := SplitByTokenCount(&Split{}, nil, items, 1)
	if len(one) != 1 || one[0].Tokens() != 100 {
		t.Fatal("m=1 should be identity")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("m=0 did not panic")
			}
		}()
		SplitByTokenCount(&Split{}, nil, items, 0)
	}()
}

// Property: splitting conserves tokens, never exceeds m microbatches, and
// keeps per-request chunk prefixes consistent (consecutive, increasing).
func TestPropertySplitConservation(t *testing.T) {
	f := func(lens []uint16, m8 uint8) bool {
		m := 1 + int(m8)%8
		var items []Item
		for i, l := range lens {
			n := 1 + int(l)%2000
			items = append(items, Item{
				Req: prefillReq(i, n), IsPrefill: true, Chunk: n,
			})
		}
		before := TotalTokens(items)
		mbs := SplitByTokenCount(&Split{}, nil, items, m)
		if len(mbs) > m {
			return false
		}
		after := 0
		prefixes := map[*request.Request]int{}
		for _, mb := range mbs {
			for _, it := range mb.Items {
				after += it.Chunk
				if want, seen := prefixes[it.Req]; seen && it.Prefix != want {
					return false
				}
				prefixes[it.Req] = it.Prefix + it.Chunk
			}
		}
		return after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FormIteration never exceeds budget and decode items always
// precede prefill items.
func TestPropertyFormIterationBudget(t *testing.T) {
	f := func(dLens, pLens []uint16, budget16 uint16) bool {
		b := Budget{MaxTokens: 1 + int(budget16)%4096, MaxSeqs: 64}
		var decodes, prefills []*request.Request
		for i, l := range dLens {
			if len(decodes) >= 32 {
				break
			}
			decodes = append(decodes, decodeReq(i, 1+int(l)%1000))
		}
		for i, l := range pLens {
			if len(prefills) >= 32 {
				break
			}
			prefills = append(prefills, prefillReq(1000+i, 1+int(l)%4000))
		}
		items := FormIteration(decodes, prefills, b)
		if TotalTokens(items) > b.MaxTokens {
			return false
		}
		seenPrefill := false
		for _, it := range items {
			if it.IsPrefill {
				seenPrefill = true
			} else if seenPrefill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A cache-hit request enters the running set with its shared prefix already
// counted as prefilled: the former must schedule only the remaining chunks,
// with the cached tokens charged as attention prefix, never as new work.
func TestFormIterationSkipsCachedPrefix(t *testing.T) {
	r := request.New(1, 0, 1200, 8)
	r.PrefilledTokens = 1000 // served from the prefix cache at admission
	items := FormIteration(nil, []*request.Request{r}, Budget{MaxTokens: 2048})
	if len(items) != 1 {
		t.Fatalf("items = %d", len(items))
	}
	it := items[0]
	if !it.IsPrefill || it.Chunk != 200 {
		t.Fatalf("chunk = %d, want the 200 uncached tokens", it.Chunk)
	}
	if it.Prefix != 1000 {
		t.Fatalf("prefix = %d, want 1000 (attention over cached KV still charged)", it.Prefix)
	}
	w := it.ChunkWork()
	if w.PrefixLen != 1000 || w.ChunkLen != 200 {
		t.Fatalf("chunk work = %+v", w)
	}
}
