package gpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kunserve/internal/model"
	"kunserve/internal/sim"
)

func timer14B() *Timer { return NewTimer(A800(), model.Qwen25_14B(), 1) }

// DecodeTime returns the time of one decode iteration over requests with the
// given context lengths, priced through the aggregate term.
func (t *Timer) DecodeTime(contextLens []int) sim.Duration {
	dec := DecodeSum{N: len(contextLens)}
	for _, n := range contextLens {
		dec.Context += n + 1
	}
	return t.Time(nil, dec)
}

func TestSpecsValidate(t *testing.T) {
	for _, s := range []*Spec{A800(), H800()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	mutations := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.HBMBytes = 0 },
		func(s *Spec) { s.PeakFLOPS = 0 },
		func(s *Spec) { s.MemBandwidth = -1 },
		func(s *Spec) { s.PCIeBandwidth = 0 },
		func(s *Spec) { s.ComputeEff = 0 },
		func(s *Spec) { s.ComputeEff = 1.5 },
		func(s *Spec) { s.MemEff = 0 },
	}
	for i, mutate := range mutations {
		s := A800()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

// Sanity-check absolute magnitudes against the paper's reported typical
// times: "221ms for prefill and 60ms for decode" on Qwen-2.5-14B/A800
// (§5.3). We only require the right order of magnitude.
func TestPrefillTimeMagnitude(t *testing.T) {
	tm := timer14B()
	d := tm.PrefillTime(0, 1024)
	if d < 50*sim.Millisecond || d > 800*sim.Millisecond {
		t.Errorf("1K-token prefill = %v, want O(100ms)", d)
	}
}

func TestDecodeTimeMagnitude(t *testing.T) {
	tm := timer14B()
	ctx := make([]int, 64)
	for i := range ctx {
		ctx[i] = 1024
	}
	d := tm.DecodeTime(ctx)
	if d < 10*sim.Millisecond || d > 300*sim.Millisecond {
		t.Errorf("64-way decode = %v, want O(10-100ms)", d)
	}
}

// Decode is memory-bound: a small decode batch should be dominated by the
// weight-load floor, so doubling the batch size should much less than double
// the time (the λ amortization effect the paper's Eq. 3 models).
func TestWeightLoadAmortization(t *testing.T) {
	tm := timer14B()
	one := tm.DecodeTime([]int{512})
	two := tm.DecodeTime([]int{512, 512})
	if ratio := float64(two) / float64(one); ratio > 1.2 {
		t.Errorf("2-req decode / 1-req decode = %.2f, want ~1 (weight-load bound)", ratio)
	}
}

// Prefill at large chunk sizes is compute-bound: doubling tokens should
// roughly double the time.
func TestPrefillComputeBound(t *testing.T) {
	tm := timer14B()
	a := tm.PrefillTime(0, 4096)
	b := tm.PrefillTime(0, 8192)
	if ratio := float64(b) / float64(a); ratio < 1.8 || ratio > 2.6 {
		t.Errorf("8K/4K prefill ratio = %.2f, want ~2-2.4 (quadratic attn adds)", ratio)
	}
}

// A chunk with a long prefix must cost more than the same chunk without one
// (the latter-chunk effect from Figure 9).
func TestPrefixMakesChunksSlower(t *testing.T) {
	tm := timer14B()
	without := tm.PrefillTime(0, 2048)
	with := tm.PrefillTime(4096, 2048)
	if with <= without {
		t.Errorf("prefix chunk %v <= no-prefix chunk %v", with, without)
	}
}

func TestPartialModelIsFaster(t *testing.T) {
	full := timer14B()
	cfg := model.Qwen25_14B()
	half := NewTimer(A800(), cfg.Partial(cfg.Layers/2), 1)
	f := full.PrefillTime(0, 2048)
	h := half.PrefillTime(0, 2048)
	if h >= f {
		t.Errorf("half-model prefill %v >= full %v", h, f)
	}
	// Roughly half, modulo fixed overheads.
	if ratio := float64(h) / float64(f); ratio < 0.35 || ratio > 0.65 {
		t.Errorf("half/full = %.2f, want ~0.5", ratio)
	}
}

func TestTensorParallelSpeedsUp(t *testing.T) {
	cfg := model.Qwen25_72B()
	tp1 := NewTimer(H800(), cfg, 1)
	tp4 := NewTimer(H800(), cfg, 4)
	a, b := tp1.PrefillTime(0, 2048), tp4.PrefillTime(0, 2048)
	if b >= a {
		t.Errorf("TP4 %v >= TP1 %v", b, a)
	}
}

func TestEmptyMicrobatchIsFree(t *testing.T) {
	if d := timer14B().MicrobatchTime(nil); d != 0 {
		t.Errorf("empty microbatch = %v", d)
	}
}

func TestZeroChunkLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ChunkLen=0 did not panic")
		}
	}()
	timer14B().MicrobatchTime([]ChunkWork{{PrefixLen: 10, ChunkLen: 0}})
}

func TestBadTPDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("tpDegree=0 did not panic")
		}
	}()
	NewTimer(A800(), model.Qwen25_14B(), 0)
}

func TestAccessors(t *testing.T) {
	tm := timer14B()
	if tm.Spec().Name != "A800-80GB" {
		t.Error("Spec accessor")
	}
	if tm.Config().Name != "Qwen-2.5-14B" {
		t.Error("Config accessor")
	}
}

// Property: microbatch time is monotone under adding chunks.
func TestPropertyMonotoneInChunks(t *testing.T) {
	tm := timer14B()
	f := func(lens []uint16) bool {
		var chunks []ChunkWork
		prev := sim.Duration(0)
		for _, l := range lens {
			chunks = append(chunks, ChunkWork{PrefixLen: int(l) % 2048, ChunkLen: 1 + int(l)%512})
			d := tm.MicrobatchTime(chunks)
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: time is monotone in prefix length for a fixed chunk.
func TestPropertyMonotoneInPrefix(t *testing.T) {
	tm := timer14B()
	f := func(p1, p2 uint16) bool {
		a, b := int(p1), int(p2)
		if a > b {
			a, b = b, a
		}
		ta := tm.PrefillTime(a, 256)
		tb := tm.PrefillTime(b, 256)
		return ta <= tb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// zooTimers returns a timer for every zoo model on its full instance, and
// stage timers for partial models (a pipeline stage after a drop).
func zooTimers() []*Timer {
	var out []*Timer
	for _, cfg := range model.Table1() {
		out = append(out, NewTimer(A800(), cfg, cfg.GPUsPerInstance))
		for _, parts := range []int{2, 3, 5} {
			out = append(out, NewTimer(H800(), cfg.Partial(cfg.Layers/parts), max(1, cfg.GPUsPerInstance/parts)))
		}
	}
	return out
}

// Property: pricing a microbatch's decodes as one DecodeSum gives the same
// bits as pricing each as its own ChunkWork, in any chunk order — both the
// attention and KV-read sums and the duration — for random mixes of decode
// and prefill chunks on every zoo model's full and stage timers.
func TestAggregateDecodesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tm := range zooTimers() {
		for trial := 0; trial < 100; trial++ {
			var all, prefills []ChunkWork
			var dec DecodeSum
			for n := rng.Intn(256); n > 0; n-- {
				if rng.Intn(4) == 0 {
					c := ChunkWork{PrefixLen: rng.Intn(8192), ChunkLen: 1 + rng.Intn(512)}
					all = append(all, c)
					prefills = append(prefills, c)
					continue
				}
				ctx := rng.Intn(32768)
				all = append(all, ChunkWork{PrefixLen: ctx, ChunkLen: 1})
				dec.N++
				dec.Context += ctx + 1
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			wn, wa, wk := tm.sums(all, DecodeSum{})
			gn, ga, gk := tm.sums(prefills, dec)
			if gn != wn || math.Float64bits(ga) != math.Float64bits(wa) || math.Float64bits(gk) != math.Float64bits(wk) {
				t.Fatalf("%s trial %d: aggregate sums (%d, %v, %v), per chunk (%d, %v, %v)",
					tm.cfg.Name, trial, gn, ga, gk, wn, wa, wk)
			}
			if got, want := tm.Time(prefills, dec), tm.MicrobatchTime(all); got != want {
				t.Fatalf("%s trial %d: aggregate %v, per chunk %v", tm.cfg.Name, trial, got, want)
			}
		}
	}
}

// DecodeTime prices through the aggregate term, matches the per-chunk
// loop, and allocates nothing.
func TestDecodeTimeAggregate(t *testing.T) {
	tm := timer14B()
	ctx := []int{17, 512, 4096, 1}
	var chunks []ChunkWork
	for _, n := range ctx {
		chunks = append(chunks, ChunkWork{PrefixLen: n, ChunkLen: 1})
	}
	if got, want := tm.DecodeTime(ctx), tm.MicrobatchTime(chunks); got != want {
		t.Fatalf("DecodeTime %v, per chunk %v", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() { tm.DecodeTime(ctx) }); avg != 0 {
		t.Errorf("DecodeTime allocates %.2f times", avg)
	}
}

// The exactness invariant is asserted: sums that reach 2^53 panic, on the
// aggregate term and on a chunk alike, and a sum just below does not.
func TestExactBoundAsserted(t *testing.T) {
	tm := NewTimer(A800(), model.Llama31_405B(), 8)
	perToken := tm.attnFactor * tm.layersF // attention FLOPs per context token
	below := int(float64(exactBound)/perToken) - 1
	tm.Time(nil, DecodeSum{N: 1, Context: below})
	for name, price := range map[string]func(){
		"aggregate": func() { tm.Time(nil, DecodeSum{N: 1, Context: below + 2}) },
		"chunk":     func() { tm.MicrobatchTime([]ChunkWork{{PrefixLen: below + 1, ChunkLen: 1}}) },
		"mixed": func() {
			tm.Time([]ChunkWork{{PrefixLen: below / 2, ChunkLen: 1}}, DecodeSum{N: 1, Context: below/2 + 4})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a sum past 2^53 did not panic", name)
				}
			}()
			price()
		}()
	}
}

// unhoistedSeconds is the reference for Time's roofline term: every call
// derives the per-microbatch constants from the spec and config.
func unhoistedSeconds(t *Timer, totalNew int, attnFlops, kvReadBytes float64) float64 {
	flops := func() float64 { return t.spec.PeakFLOPS * t.spec.ComputeEff * float64(t.tpDegree) }
	membw := func() float64 { return t.spec.MemBandwidth * t.spec.MemEff * float64(t.tpDegree) }
	linearCompute := t.cfg.LinearFlopsPerToken() * float64(totalNew) / flops()
	weightLoad := float64(t.cfg.ParamBytes()) / membw()
	linear := linearCompute
	if weightLoad > linear {
		linear = weightLoad
	}
	attn := attnFlops / flops()
	if kvRead := kvReadBytes / membw(); kvRead > attn {
		attn = kvRead
	}
	return linear + attn
}

// Property: the constants NewTimer hoists price random microbatches to the
// same bits as deriving them on every call — the roofline seconds before
// their rounding to nanoseconds, and the duration — on every zoo model's
// full and stage timers, for prefill-heavy, decode-only and mixed chunk
// sets.
func TestHoistedConstantsPriceLikeUnhoisted(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tm := range zooTimers() {
		for trial := 0; trial < 200; trial++ {
			var chunks []ChunkWork
			for n := rng.Intn(64); n > 0; n-- {
				chunks = append(chunks, ChunkWork{PrefixLen: rng.Intn(16384), ChunkLen: 1 + rng.Intn(2048)>>rng.Intn(12)})
			}
			var dec DecodeSum
			if rng.Intn(2) == 0 {
				dec.N = 1 + rng.Intn(256)
				dec.Context = dec.N + rng.Intn(dec.N*8192)
			}
			n := len(chunks) + dec.N
			if n == 0 {
				continue
			}
			totalNew, attnFlops, kvReadBytes := tm.sums(chunks, dec)
			got, want := tm.seconds(totalNew, attnFlops, kvReadBytes), unhoistedSeconds(tm, totalNew, attnFlops, kvReadBytes)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (tp %d) trial %d: hoisted %v s, unhoisted %v s", tm.cfg.Name, tm.tpDegree, trial, got, want)
			}
			wantD := sim.DurationFromSeconds(want) + sim.Duration(tm.cfg.Layers)*tm.spec.KernelLaunch + sim.Duration(n)*2*sim.Microsecond
			if d := tm.Time(chunks, dec); d != wantD {
				t.Fatalf("%s (tp %d) trial %d: hoisted %v, unhoisted %v", tm.cfg.Name, tm.tpDegree, trial, d, wantD)
			}
		}
	}
}
