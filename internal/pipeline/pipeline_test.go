package pipeline

import (
	"testing"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/network"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// twoStage builds a 2-stage pipeline of a 14B model split in half, each
// stage on its own A800 with a 200 Gbps egress link.
func twoStage(s *sim.Simulation) *Engine {
	cfg := model.Qwen25_14B()
	half := cfg.Partial(cfg.Layers / 2)
	stages := []*Stage{
		{
			Timer:  gpu.NewTimer(gpu.A800(), half, 1),
			Egress: network.NewLink(s, "e0", network.RDMA200, network.DefaultLatency),
		},
		{
			Timer:  gpu.NewTimer(gpu.A800(), half, 1),
			Egress: network.NewLink(s, "e1", network.RDMA200, network.DefaultLatency),
		},
	}
	return New(s, stages, int64(cfg.HiddenDim)*2)
}

// Stage returns stage i.
func (e *Engine) Stage(i int) *Stage { return e.stages[i] }

// BusyTime returns the stage's cumulative execution time.
func (st *Stage) BusyTime() sim.Duration { return st.busyTotal }

// mbsOf wraps item lists as microbatches with no aggregate decodes.
func mbsOf(items ...[]batching.Item) []batching.Microbatch {
	mbs := make([]batching.Microbatch, len(items))
	for i, it := range items {
		mbs[i] = batching.Microbatch{Items: it}
	}
	return mbs
}

func prefillItems(id, tokens int) []batching.Item {
	r := request.New(id, 0, tokens, 10)
	return []batching.Item{{Req: r, IsPrefill: true, Chunk: tokens, Prefix: 0}}
}

func TestRoundCompletes(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	done := false
	e.RunRound(mbsOf(prefillItems(1, 1024), prefillItems(2, 1024)), func() { done = true })
	s.Run()
	if !done {
		t.Fatal("round never completed")
	}
	if e.Stages() != 2 {
		t.Fatal("stage count")
	}
	if e.SpanTime() <= 0 {
		t.Fatal("span not recorded")
	}
}

// Pipelining overlaps stages: two microbatches through two stages must be
// faster than serial execution of all stage-times, and slower than one
// stage's work.
func TestPipeliningOverlaps(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	mb := 1024
	stageTime := e.Stage(0).Timer.PrefillTime(0, mb)
	e.RunRound(mbsOf(prefillItems(1, mb), prefillItems(2, mb)), func() {})
	s.Run()
	elapsed := s.Now()
	// Perfect pipeline: 3 stage-slots (mb1: s0+s1, mb2 overlapped, +1).
	serial := sim.Time(4 * stageTime)
	ideal := sim.Time(3 * stageTime)
	if elapsed >= serial {
		t.Errorf("elapsed %v >= serial %v: no overlap", elapsed, serial)
	}
	if elapsed < ideal {
		t.Errorf("elapsed %v < ideal %v: impossible", elapsed, ideal)
	}
}

// Balanced microbatches yield low bubble ratios; imbalanced ones high —
// the Figure 8 effect the lookahead former exists to fix.
func TestImbalanceCreatesBubbles(t *testing.T) {
	sBal := sim.New(1)
	eBal := twoStage(sBal)
	var balanced [][]batching.Item
	for i := 0; i < 6; i++ {
		balanced = append(balanced, prefillItems(i, 1024))
	}
	eBal.RunRound(mbsOf(balanced...), func() {})
	sBal.Run()

	sImb := sim.New(1)
	eImb := twoStage(sImb)
	imbalanced := [][]batching.Item{
		prefillItems(0, 128), prefillItems(1, 128), prefillItems(2, 128),
		prefillItems(3, 128), prefillItems(4, 128), prefillItems(5, 5504),
	}
	eImb.RunRound(mbsOf(imbalanced...), func() {})
	sImb.Run()

	if eImb.BubbleRatio() <= eBal.BubbleRatio() {
		t.Errorf("imbalanced bubbles %.2f <= balanced %.2f",
			eImb.BubbleRatio(), eBal.BubbleRatio())
	}
}

func TestEmptyRoundFiresImmediately(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	done := false
	e.RunRound(nil, func() { done = true })
	if !done {
		t.Fatal("empty round must complete synchronously")
	}
	e.RunRound(mbsOf(nil, nil), func() { done = true })
	if !done {
		t.Fatal("all-empty microbatches must complete synchronously")
	}
}

func TestSequentialRounds(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	rounds := 0
	var runNext func()
	runNext = func() {
		rounds++
		if rounds < 3 {
			e.RunRound(mbsOf(prefillItems(rounds, 512)), runNext)
		}
	}
	e.RunRound(mbsOf(prefillItems(0, 512)), runNext)
	s.Run()
	if rounds != 3 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestOverlappingRoundsPanic(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	e.RunRound(mbsOf(prefillItems(1, 512)), func() {})
	defer func() {
		if recover() == nil {
			t.Error("overlapping round did not panic")
		}
	}()
	e.RunRound(mbsOf(prefillItems(2, 512)), func() {})
}

// Each of two microbatches occupies each of two stages for a nonzero
// time, and BusyTime sums both.
func TestStageBusyTimeCountsEachMicrobatch(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	e.RunRound(mbsOf(prefillItems(1, 512), prefillItems(2, 512)), func() {})
	s.Run()
	for i := 0; i < e.Stages(); i++ {
		st := e.Stage(i)
		each := st.Timer.PrefillTime(0, 512)
		if each <= 0 {
			t.Fatalf("stage %d: microbatch time %v", i, each)
		}
		if got := st.BusyTime(); got != 2*each {
			t.Errorf("stage %d busy %v, want 2 x %v", i, got, each)
		}
	}
}

func TestBusyTimeAccounted(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	e.RunRound(mbsOf(prefillItems(1, 2048)), func() {})
	s.Run()
	want := e.Stage(0).Timer.PrefillTime(0, 2048)
	if got := e.Stage(0).BusyTime(); got != want {
		t.Errorf("stage 0 busy %v, want %v", got, want)
	}
	// Single microbatch through 2 stages: 50% bubbles by construction.
	if r := e.BubbleRatio(); r < 0.4 || r > 0.6 {
		t.Errorf("bubble ratio = %.2f, want ~0.5", r)
	}
}

// Activations from a stalled link delay the next stage: the engine must
// respect network ordering.
func TestActivationDelayedByLinkContention(t *testing.T) {
	s := sim.New(1)
	e := twoStage(s)
	// Saturate stage 0's egress with a 40 ms bulk transfer just before
	// the activation is ready.
	bulk := int64(1e9) // 1 GB over 25 GB/s = 40 ms
	stage0 := e.Stage(0)
	actTime := stage0.Timer.PrefillTime(0, 512)
	s.At(sim.Time(actTime)-sim.Time(sim.Millisecond), "bulk", func() {
		stage0.Egress.Send(bulk, network.PriorityBulk, nil)
	})
	e.RunRound(mbsOf(prefillItems(1, 512)), func() {})
	s.Run()
	// The activation had to wait ~39 ms behind the bulk transfer.
	minEnd := sim.Time(actTime) + sim.Time(39*sim.Millisecond)
	if s.Now() < minEnd {
		t.Errorf("round finished at %v despite blocked link (want >= %v)", s.Now(), minEnd)
	}
}

// Each microbatch's aggregate decodes ride with it: priced with its items
// by the timer's aggregate term, forwarded as activations, and run even
// when the microbatch holds no items.
func TestAggregateDecodesRideTheirMicrobatch(t *testing.T) {
	cfg := model.Qwen25_14B()
	dec := gpu.DecodeSum{N: 3, Context: 301 + 512 + 1025}
	// Alone, a microbatch runs on the first stage, crosses the idle link
	// and runs on the second: each stage prices its aggregate decodes with
	// its items, and the activations count both.
	for _, items := range [][]batching.Item{nil, prefillItems(1, 256)} {
		s := sim.New(1)
		e := twoStage(s)
		done := false
		e.RunRound([]batching.Microbatch{{Items: items, Dec: dec}}, func() { done = true })
		s.Run()
		if !done {
			t.Fatalf("%d-item round with aggregate decodes never completed", len(items))
		}
		mb := batching.Microbatch{Items: items, Dec: dec}
		work := batching.ToChunkWork(items)
		link := e.Stage(0).Egress.TransferTime(int64(mb.Tokens()) * int64(cfg.HiddenDim) * 2)
		want := e.Stage(0).Timer.Time(work, dec) + link + e.Stage(1).Timer.Time(work, dec)
		if s.Now() != sim.Time(want) {
			t.Errorf("%d-item round took %v, want %v", len(items), s.Now(), want)
		}
	}
	// A decode-only microbatch behind a prefill one crosses the link with
	// its decodes' activations: the round ends when the second stage
	// finishes it, after it waited for both the first stage and its own
	// payload.
	s := sim.New(1)
	e := twoStage(s)
	var end sim.Time
	e.RunRound([]batching.Microbatch{{Items: prefillItems(1, 512)}, {Dec: dec}}, func() { end = s.Now() })
	s.Run()
	t0, t1 := e.Stage(0).Timer, e.Stage(1).Timer
	first := t0.Time(batching.ToChunkWork(prefillItems(1, 512)), gpu.DecodeSum{})
	second := t0.Time(nil, dec)
	link := e.Stage(0).Egress.TransferTime(int64(dec.N) * int64(model.Qwen25_14B().HiddenDim) * 2)
	if min := sim.Time(first + second + link + t1.Time(nil, dec)); end < min {
		t.Errorf("round ended at %v, before the decode microbatch could (%v)", end, min)
	}
	if got, want := e.Stage(0).Egress.BytesSent(), int64(512+dec.N)*int64(model.Qwen25_14B().HiddenDim)*2; got != want {
		t.Errorf("stage 0 forwarded %d activation bytes, want %d", got, want)
	}
	if e.Stage(1).BusyTime() < t1.Time(nil, dec) {
		t.Errorf("stage 1 busy %v, less than the decode microbatch alone", e.Stage(1).BusyTime())
	}
}

// A pipeline has at least two stages and a positive activation payload.
func TestConstructorPanics(t *testing.T) {
	s := sim.New(1)
	for _, c := range []struct {
		name   string
		stages []*Stage
		bytes  int64
	}{
		{"no stages", nil, 1},
		{"one stage", []*Stage{{}}, 1},
		{"zero activation bytes", []*Stage{{}, {}}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			New(s, c.stages, c.bytes)
		}()
	}
}

// More microbatches amortize the pipeline drain: bubble ratio decreases
// monotonically-ish with microbatch count for balanced work.
func TestMoreMicrobatchesFewerBubbles(t *testing.T) {
	ratio := func(n int) float64 {
		s := sim.New(1)
		e := twoStage(s)
		var mbs [][]batching.Item
		for i := 0; i < n; i++ {
			mbs = append(mbs, prefillItems(i, 1024))
		}
		e.RunRound(mbsOf(mbs...), func() {})
		s.Run()
		return e.BubbleRatio()
	}
	r2, r8 := ratio(2), ratio(8)
	if r8 >= r2 {
		t.Errorf("bubbles with 8 mbs (%.2f) >= with 2 (%.2f)", r8, r2)
	}
}

// TestScheduleWithContendedEgressPinned pins a whole round's schedule: three
// unequal stages, four unequal microbatches (one carrying aggregate decodes), and a
// chunked bulk transfer on stage 0's egress that the activations must
// interleave with. Each stage's busy time, the engine's span and the round's
// end are pinned to the nanosecond, so a rewrite of the stage hand-offs that
// changes any start, completion or link order fails here.
func TestScheduleWithContendedEgressPinned(t *testing.T) {
	s := sim.New(1)
	cfg := model.Qwen25_14B()
	layers := []int{20, 16, 12}
	stages := make([]*Stage, len(layers))
	for i, l := range layers {
		stages[i] = &Stage{
			Timer:  gpu.NewTimer(gpu.A800(), cfg.Partial(l), 1),
			Egress: network.NewLink(s, "e", network.RDMA200, network.DefaultLatency),
		}
	}
	e := New(s, stages, int64(cfg.HiddenDim)*2)
	// 20,000 MB in 100 MB chunks (4.2 ms each), starting just before the
	// first activation leaves stage 0 and on the wire for the whole round:
	// every activation waits behind a chunk.
	first := stages[0].Timer.PrefillTime(0, 1536)
	s.At(sim.Time(first)-sim.Time(50*sim.Microsecond), "bulk", func() {
		stages[0].Egress.SendChunked(20000<<20, 100<<20, network.PriorityBulk, nil, nil)
	})
	mbs := []batching.Microbatch{
		{Items: prefillItems(1, 1536)},
		{Items: prefillItems(2, 256), Dec: gpu.DecodeSum{N: 5, Context: 5 * 900}},
		{Items: prefillItems(3, 3072)},
		{Items: prefillItems(4, 64)},
	}
	var end sim.Time
	e.RunRound(mbs, func() { end = s.Now() })
	// The caller may reuse its microbatch slice once RunRound returns.
	for i := range mbs {
		mbs[i] = batching.Microbatch{}
	}
	s.Run()
	var busy []sim.Duration
	for i := 0; i < e.Stages(); i++ {
		busy = append(busy, e.Stage(i).BusyTime())
	}
	wantBusy := []sim.Duration{243152516, 194525613, 145898710}
	for i, w := range wantBusy {
		if busy[i] != w {
			t.Errorf("stage %d busy %d ns, want %d", i, busy[i], w)
		}
	}
	if got, want := e.SpanTime(), sim.Duration(454659623); got != want {
		t.Errorf("span %d ns, want %d", got, want)
	}
	if want := sim.Time(454659623); end != want {
		t.Errorf("round ended at %d ns, want %d", end, want)
	}
}
