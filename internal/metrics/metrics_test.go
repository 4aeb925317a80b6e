package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"kunserve/internal/sim"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Percentile(50) != 0 || d.Count() != 0 {
		t.Fatal("empty dist stats")
	}
	for _, v := range []float64{3, 1, 2, 5, 4} {
		d.Add(v)
	}
	if d.Count() != 5 {
		t.Fatal("count")
	}
	if d.Mean() != 3 {
		t.Fatalf("mean = %v", d.Mean())
	}
	if got := d.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := d.Max(); got != 5 {
		t.Fatalf("max = %v", got)
	}
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	// Adding after a percentile query re-sorts correctly.
	d.Add(0.5)
	if got := d.Percentile(0); got != 0.5 {
		t.Fatalf("p0 after add = %v", got)
	}
}

func TestDistEmptyEdgeCases(t *testing.T) {
	var d Dist
	if d.Percentile(0) != 0 || d.Percentile(50) != 0 || d.Percentile(100) != 0 {
		t.Error("empty percentiles")
	}
	if d.Mean() != 0 || d.Max() != 0 {
		t.Error("empty mean/max")
	}
}

func TestDistPercentileBounds(t *testing.T) {
	var d Dist
	for _, v := range []float64{2, 8, 4} {
		d.Add(v)
	}
	// p <= 0 clamps to the minimum, p >= 100 to the maximum.
	for _, p := range []float64{-5, 0} {
		if got := d.Percentile(p); got != 2 {
			t.Errorf("p%v = %v, want 2", p, got)
		}
	}
	for _, p := range []float64{100, 150} {
		if got := d.Percentile(p); got != 8 {
			t.Errorf("p%v = %v, want 8", p, got)
		}
	}
	if got := d.Percentile(1e-9); got != 2 {
		t.Errorf("tiny p = %v, want first sample", got)
	}
}

// Interleaving Add with Percentile must re-sort on every query after a
// mutation: the sorted flag cannot go stale.
func TestDistInterleavedAddResort(t *testing.T) {
	var d Dist
	d.Add(5)
	if got := d.Percentile(100); got != 5 {
		t.Fatalf("max = %v", got)
	}
	d.Add(1)
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("min after add = %v", got)
	}
	d.Add(10)
	if got := d.Percentile(100); got != 10 {
		t.Fatalf("max after add = %v", got)
	}
	d.Add(7)
	// samples {1,5,7,10}: nearest-rank p50 = ceil(2) -> 5, p75 -> 7.
	if got := d.Percentile(50); got != 5 {
		t.Fatalf("p50 after interleaved adds = %v", got)
	}
	if got := d.Percentile(75); got != 7 {
		t.Fatalf("p75 after interleaved adds = %v", got)
	}
	if d.Count() != 4 || d.Mean() != 5.75 {
		t.Fatalf("count/mean = %d/%v", d.Count(), d.Mean())
	}
}

// Observations may arrive with non-monotone timestamps (parallel summaries,
// out-of-order completions): earlier bins must still accumulate after later
// bins have grown the series.
func TestSeriesObserveOutOfOrder(t *testing.T) {
	s := NewSeries(10 * sim.Second)
	s.Observe(sim.FromSeconds(25), 6)
	s.Observe(sim.FromSeconds(5), 2)
	s.Observe(sim.FromSeconds(7), 4)
	if s.Bins() != 3 {
		t.Fatalf("bins = %d", s.Bins())
	}
	if sums := s.Sum(); sums[0] != 6 || sums[1] != 0 || sums[2] != 6 {
		t.Fatalf("sums = %v", sums)
	}
	if means := s.MeanPerBin(); means[0] != 3 || means[1] != 0 || means[2] != 6 {
		t.Fatalf("means = %v", means)
	}

	m := NewMaxSeries(10 * sim.Second)
	m.Observe(sim.FromSeconds(25), 3)
	m.Observe(sim.FromSeconds(5), 9)
	m.Observe(sim.FromSeconds(8), 1)
	if v := m.Values(); v[0] != 9 || v[1] != 0 || v[2] != 3 {
		t.Fatalf("max values = %v", v)
	}
}

func TestDistPercentileNearestRank(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// Observe divides only when t leaves the last bin's window; its bins,
// sums and counts must equal binning every observation by division, for
// runs of nearby times, jumps both ways and times on window edges.
func TestSeriesMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const window = 3 * sim.Second
	s := NewSeries(window)
	var sums []float64
	var counts []int64
	at := sim.Time(0)
	for i := 0; i < 20000; i++ {
		switch k := rng.Intn(10); {
		case k == 0:
			at = sim.Time(rng.Int63n(int64(40 * sim.Second)))
		case k == 1:
			at = sim.Time(rng.Int63n(14)) * sim.Time(window) // a window's first instant
		case k == 2:
			at = sim.Time(1+rng.Int63n(14))*sim.Time(window) - 1 // a window's last
		default:
			at = at.Add(sim.Duration(rng.Int63n(int64(200 * sim.Millisecond))))
		}
		v := float64(rng.Intn(100))
		s.Observe(at, v)
		bin := int(sim.Duration(at) / window)
		for len(sums) <= bin {
			sums, counts = append(sums, 0), append(counts, 0)
		}
		sums[bin] += v
		counts[bin]++
	}
	if !reflect.DeepEqual(s.sums, sums) || !reflect.DeepEqual(s.counts, counts) {
		t.Fatalf("series bins %v / %v, division %v / %v", s.sums, s.counts, sums, counts)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(10 * sim.Second)
	s.Observe(sim.FromSeconds(5), 2)
	s.Observe(sim.FromSeconds(7), 4)
	s.Observe(sim.FromSeconds(25), 6)
	if s.Bins() != 3 {
		t.Fatalf("bins = %d", s.Bins())
	}
	sums := s.Sum()
	if sums[0] != 6 || sums[1] != 0 || sums[2] != 6 {
		t.Fatalf("sums = %v", sums)
	}
	means := s.MeanPerBin()
	if means[0] != 3 || means[1] != 0 || means[2] != 6 {
		t.Fatalf("means = %v", means)
	}
	rates := s.RatePerSecond()
	if rates[0] != 0.6 {
		t.Fatalf("rates = %v", rates)
	}
	if s.Window() != 10*sim.Second {
		t.Fatal("window")
	}
}

func TestMaxSeries(t *testing.T) {
	m := NewMaxSeries(sim.Second)
	m.Observe(sim.FromSeconds(0.1), 5)
	m.Observe(sim.FromSeconds(0.9), 3)
	m.Observe(sim.FromSeconds(2.5), 7)
	v := m.Values()
	if len(v) != 3 || v[0] != 5 || v[1] != 0 || v[2] != 7 {
		t.Fatalf("values = %v", v)
	}
}

func TestSeriesPanics(t *testing.T) {
	cases := []func(){
		func() { NewSeries(0) },
		func() { NewMaxSeries(-sim.Second) },
		func() { NewSeries(sim.Second).Observe(-1, 1) },
		func() { NewMaxSeries(sim.Second).Observe(-1, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRequestRecord(t *testing.T) {
	r := RequestRecord{
		Arrival:      sim.FromSeconds(1),
		FirstToken:   sim.FromSeconds(1.5),
		Completed:    sim.FromSeconds(11.5),
		OutputTokens: 101,
	}
	if got := r.TTFT(); got != 0.5 {
		t.Fatalf("TTFT = %v", got)
	}
	if got := r.TPOT(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("TPOT = %v", got)
	}
	single := RequestRecord{OutputTokens: 1}
	if single.TPOT() != 0 {
		t.Fatal("single-token TPOT")
	}
}

// Reserve sizes an exact collector's Records, TTFT and TPOT up front and
// never shrinks them; a bounded collector keeps its reservoirs and stores
// no Records.
func TestReserveSizesExactOnly(t *testing.T) {
	c := NewCollector(sim.Second, nil)
	c.Reserve(100)
	if cap(c.Records) < 100 || cap(c.TTFT.samples) < 100 || cap(c.TPOT.samples) < 100 {
		t.Fatalf("reserved caps %d/%d/%d, want >= 100",
			cap(c.Records), cap(c.TTFT.samples), cap(c.TPOT.samples))
	}
	c.Finish(RequestRecord{FirstToken: sim.FromSeconds(1), Completed: sim.FromSeconds(2), OutputTokens: 3})
	c.Reserve(0)
	if len(c.Records) != 1 || cap(c.Records) < 100 || c.TTFT.Count() != 1 || c.TPOT.Count() != 1 {
		t.Fatalf("Reserve(0) after a finish: %d records (cap %d), TTFT %d, TPOT %d",
			len(c.Records), cap(c.Records), c.TTFT.Count(), c.TPOT.Count())
	}

	b := NewCollector(sim.Second, nil)
	b.Bound(8, 1)
	b.Reserve(100)
	if b.Records != nil || cap(b.TTFT.samples) != 8 || cap(b.TPOT.samples) != 8 {
		t.Fatalf("bounded Reserve: records cap %d, reservoir caps %d/%d",
			cap(b.Records), cap(b.TTFT.samples), cap(b.TPOT.samples))
	}
}

func TestCollectorFlow(t *testing.T) {
	c := NewCollector(10*sim.Second, nil)
	c.Finish(RequestRecord{
		ID: 1, Arrival: 0, FirstToken: sim.FromSeconds(0.2),
		Completed: sim.FromSeconds(5), OutputTokens: 50,
	})
	c.Finish(RequestRecord{
		ID: 2, Arrival: sim.FromSeconds(1), FirstToken: sim.FromSeconds(1.4),
		Completed: sim.FromSeconds(2), OutputTokens: 1,
	})
	if c.TTFT.Count() != 2 {
		t.Fatal("TTFT count")
	}
	if c.TPOT.Count() != 1 {
		t.Fatal("TPOT should skip single-token outputs")
	}
	c.EmitTokens(sim.FromSeconds(3), 100)
	c.EmitTokens(sim.FromSeconds(4), 200)
	if got := c.ThroughputTokensPerSec(); got != 30 {
		t.Fatalf("throughput = %v", got)
	}
	c.ObserveKVDemand(sim.FromSeconds(2), 1e9)
	if c.KVDemand.Values()[0] != 1e9 {
		t.Fatal("KV demand series")
	}
}

func TestCollectorPerClassBreakdown(t *testing.T) {
	c := NewCollector(10*sim.Second, map[string]SLOTarget{
		"strict": {TTFT: 1, TBT: 0.2},
		"batch":  {TTFT: 2},
	})
	c.Finish(RequestRecord{
		ID: 1, Arrival: 0, FirstToken: sim.FromSeconds(0.5),
		Completed: sim.FromSeconds(2), OutputTokens: 10,
		Client: "a", Class: "strict",
	})
	c.Finish(RequestRecord{
		ID: 2, Arrival: 0, FirstToken: sim.FromSeconds(3),
		Completed: sim.FromSeconds(4), OutputTokens: 1,
		Client: "b", Class: "batch",
	})
	// Untagged requests must not create a "" class.
	c.Finish(RequestRecord{
		ID: 3, Arrival: 0, FirstToken: sim.FromSeconds(1),
		Completed: sim.FromSeconds(2), OutputTokens: 5,
	})
	names := c.ClassNames()
	if len(names) != 2 || names[0] != "batch" || names[1] != "strict" {
		t.Fatalf("ClassNames = %v", names)
	}
	if c.ClassTTFT["strict"].Count() != 1 || c.ClassTTFT["batch"].Count() != 1 {
		t.Error("per-class TTFT counts")
	}
	if got := c.ClassTTFT["strict"].Percentile(50); got != 0.5 {
		t.Errorf("strict TTFT = %v", got)
	}
	// Single-token outputs are skipped in the per-class TPOT too.
	if c.ClassTPOT["batch"].Count() != 0 {
		t.Error("batch TPOT should skip single-token output")
	}
	if c.ClassTPOT["strict"].Count() != 1 {
		t.Error("strict TPOT missing")
	}
	// The overall distributions still include every request.
	if c.TTFT.Count() != 3 {
		t.Error("overall TTFT count")
	}
	// strict meets both targets (TTFT 0.5 s, TPOT 1.5/9 s); batch misses
	// its TTFT target (3 s > 2 s).
	if c.ClassAttained("strict") != 1 || c.ClassAttained("batch") != 0 {
		t.Errorf("attained strict %d batch %d, want 1 and 0",
			c.ClassAttained("strict"), c.ClassAttained("batch"))
	}
}

func TestCollectorNoClassesWhenUntagged(t *testing.T) {
	c := NewCollector(10*sim.Second, nil)
	c.Finish(RequestRecord{
		ID: 1, Arrival: 0, FirstToken: sim.FromSeconds(1),
		Completed: sim.FromSeconds(2), OutputTokens: 2,
	})
	if len(c.ClassNames()) != 0 || c.ClassTTFT != nil {
		t.Error("untagged run grew per-class state")
	}
}

func TestCollectorEmptyThroughput(t *testing.T) {
	c := NewCollector(sim.Second, nil)
	if c.ThroughputTokensPerSec() != 0 {
		t.Fatal("empty throughput")
	}
}

// Property: Percentile returns an element of the sample set and is monotone
// in p.
func TestPropertyPercentiles(t *testing.T) {
	f := func(raw []float64) bool {
		var d Dist
		clean := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.Add(v)
				clean = append(clean, v)
			}
		}
		if d.Count() == 0 {
			return true
		}
		sort.Float64s(clean)
		prev := math.Inf(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
			found := false
			for _, s := range clean {
				if s == v {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStageWaits(t *testing.T) {
	c := NewCollector(sim.Second, nil)
	if c.StageWaits != nil || len(c.StageNames()) != 0 {
		t.Fatal("fresh collector carries stage state")
	}
	c.ObserveStageWait(StageKVTransfer, 0.5)
	c.ObserveStageWait(StagePrefillQueue, 1.0)
	c.ObserveStageWait(StagePrefillQueue, 3.0)
	want := []string{StageKVTransfer, StagePrefillQueue}
	if got := c.StageNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StageNames = %v, want %v", got, want)
	}
	if d := c.StageWaits[StagePrefillQueue]; d.Count() != 2 || d.Mean() != 2.0 {
		t.Errorf("prefill queue dist: count %d mean %v", d.Count(), d.Mean())
	}
	if d := c.StageWaits[StageKVTransfer]; d.Percentile(50) != 0.5 {
		t.Errorf("transfer P50 = %v", d.Percentile(50))
	}
	if c.StageWaits[StageDecodeQueue] != nil {
		t.Error("unobserved stage materialized")
	}
}

func TestReservoirDistBelowCapacityExact(t *testing.T) {
	d := NewReservoirDist(100, 1)
	for _, v := range []float64{3, 1, 2, 5, 4} {
		d.Add(v)
	}
	// Under capacity the reservoir holds the full stream: every stat exact.
	if d.Count() != 5 || d.Retained() != 5 {
		t.Fatalf("count/retained = %d/%d", d.Count(), d.Retained())
	}
	if d.Mean() != 3 || d.Percentile(50) != 3 || d.Max() != 5 {
		t.Fatalf("stats = mean %v p50 %v max %v", d.Mean(), d.Percentile(50), d.Max())
	}
}

func TestReservoirDistBoundedAndSeedDeterministic(t *testing.T) {
	const capacity = 512
	a := NewReservoirDist(capacity, 42)
	b := NewReservoirDist(capacity, 42)
	c := NewReservoirDist(capacity, 7)
	rng := rand.New(rand.NewSource(9))
	const n = 10000
	for i := 0; i < n; i++ {
		v := rng.Float64()
		a.Add(v)
		b.Add(v)
		c.Add(v)
	}
	if a.Count() != n {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Retained() != capacity {
		t.Fatalf("retained = %d, want capacity %d", a.Retained(), capacity)
	}
	differs := false
	for _, p := range []float64{50, 90, 99} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Errorf("same seed, different p%.0f: %v vs %v", p, a.Percentile(p), b.Percentile(p))
		}
		if a.Percentile(p) != c.Percentile(p) {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds produced identical reservoirs")
	}
}

func TestReservoirDistPercentileError(t *testing.T) {
	const n = 1_000_000
	exact := &Dist{samples: make([]float64, 0, n)}
	res := NewReservoirDist(4096, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		v := rng.ExpFloat64()
		exact.Add(v)
		res.Add(v)
	}
	if res.Count() != n || res.Retained() != 4096 {
		t.Fatalf("count/retained = %d/%d", res.Count(), res.Retained())
	}
	// The running sum adds the same values in the same order as the exact
	// Mean loop does (before any Percentile call sorts it), so the
	// reservoir mean is bit-identical, not merely close.
	if res.Mean() != exact.Mean() {
		t.Errorf("reservoir mean %v != exact %v", res.Mean(), exact.Mean())
	}
	// A 4096-sample uniform reservoir of 1e6 Exp(1) draws lands within a
	// few percent of the exact quantiles; 10% is a loose deterministic
	// bound (fixed seeds — this is not a flaky statistical test).
	for _, p := range []float64{50, 90, 99} {
		e, a := exact.Percentile(p), res.Percentile(p)
		if rel := math.Abs(a-e) / e; rel > 0.10 {
			t.Errorf("p%.0f: reservoir %v vs exact %v (rel err %.3f)", p, a, e, rel)
		}
	}
}

func TestReservoirDistCapacityPanics(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d did not panic", capacity)
				}
			}()
			NewReservoirDist(capacity, 1)
		}()
	}
}

func TestStageWaitsUnknownLabels(t *testing.T) {
	c := NewCollector(sim.Second, nil)
	// Labels outside the Stage* constants are first-class: the map is
	// open-ended and StageNames reports whatever was observed, sorted.
	c.ObserveStageWait("warmup", 0.25)
	c.ObserveStageWait(StageDecodeQueue, 1.5)
	c.ObserveStageWait("custom_stage", 2.0)
	want := []string{"custom_stage", StageDecodeQueue, "warmup"}
	if got := c.StageNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StageNames = %v, want %v", got, want)
	}
	if d := c.StageWaits["warmup"]; d == nil || d.Count() != 1 {
		t.Error("unknown label not recorded")
	}
}

func TestStageWaitsOrderInsensitive(t *testing.T) {
	stages := []string{StageKVTransfer, StagePrefillQueue, StageDecodeQueue, StageHandoffPending}
	forward := NewCollector(sim.Second, nil)
	backward := NewCollector(sim.Second, nil)
	for i, s := range stages {
		forward.ObserveStageWait(s, float64(i))
		backward.ObserveStageWait(stages[len(stages)-1-i], float64(i))
	}
	if !reflect.DeepEqual(forward.StageNames(), backward.StageNames()) {
		t.Fatalf("StageNames depends on observation order: %v vs %v",
			forward.StageNames(), backward.StageNames())
	}
	if !sort.StringsAreSorted(forward.StageNames()) {
		t.Fatalf("StageNames not sorted: %v", forward.StageNames())
	}
}

func TestStageWaitsIndependentOfPerClass(t *testing.T) {
	c := NewCollector(sim.Second, nil)
	c.Finish(RequestRecord{
		ID: 1, Class: "interactive", Arrival: 0,
		FirstToken: sim.FromSeconds(0.5), Completed: sim.FromSeconds(2),
		OutputTokens: 10,
	})
	c.ObserveStageWait(StageKVTransfer, 0.5)
	// The stage map and the per-class maps are disjoint: a class-tagged
	// Finish must not materialize stage labels, and vice versa.
	if got := c.ClassNames(); !reflect.DeepEqual(got, []string{"interactive"}) {
		t.Fatalf("ClassNames = %v", got)
	}
	if got := c.StageNames(); !reflect.DeepEqual(got, []string{StageKVTransfer}) {
		t.Fatalf("StageNames = %v", got)
	}
	if c.StageWaits["interactive"] != nil {
		t.Error("class name leaked into stage map")
	}
	if c.ClassTTFT[StageKVTransfer] != nil {
		t.Error("stage label leaked into class map")
	}
}

func TestObservePrefillHitRate(t *testing.T) {
	c := NewCollector(sim.Second, nil)
	if c.PrefixHitRate() != 0 {
		t.Fatal("hit rate without prefill")
	}
	c.ObservePrefill(0, 1000)
	c.ObservePrefill(600, 1000)
	if c.PrefillTokens != 2000 || c.CachedPrefillTokens != 600 {
		t.Fatalf("counters = %d/%d", c.CachedPrefillTokens, c.PrefillTokens)
	}
	if hr := c.PrefixHitRate(); hr != 0.3 {
		t.Fatalf("hit rate = %v", hr)
	}
}

// Percentile memoizes its sort; Add invalidates the memo. Reading a Dist
// through a value copy sorts the shared sample array but records the memo
// only on the copy — the original still believes its samples unsorted —
// which is why every summary reads the collector's dists through pointers.
func TestDistPercentileSortMemo(t *testing.T) {
	var d Dist
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	if d.sorted {
		t.Fatal("memo set before any percentile read")
	}
	if got := d.Percentile(50); got != 2 {
		t.Fatalf("P50 = %v, want 2", got)
	}
	if !d.sorted {
		t.Fatal("memo not set by Percentile")
	}
	d.Add(0.5)
	if d.sorted {
		t.Fatal("Add did not invalidate the memo")
	}

	cp := d
	cp.Percentile(50)
	if !cp.sorted {
		t.Fatal("copy's read did not set the copy's memo")
	}
	if d.sorted {
		t.Fatal("copy's read set the original's memo: value copies must not be used for reads")
	}
}
