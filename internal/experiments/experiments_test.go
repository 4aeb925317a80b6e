package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/spec"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := []struct {
		size, ratio float64
	}{
		{28, 34.4}, {136, 42.3}, {756, 59.1}, {479, 74.8}, {1572, 61.4},
	}
	for i, r := range rows {
		if math.Abs(r.SizeGB-want[i].size) > want[i].size*0.02 {
			t.Errorf("%s size %.0f, want %.0f", r.Model, r.SizeGB, want[i].size)
		}
		if math.Abs(r.RatioPct-want[i].ratio) > 1 {
			t.Errorf("%s ratio %.1f, want %.1f", r.Model, r.RatioPct, want[i].ratio)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure2ShowsSpikes(t *testing.T) {
	r, err := Figure2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RPS) == 0 || len(r.DemandGB) == 0 {
		t.Fatal("missing panels")
	}
	if r.CapacityGB <= 0 {
		t.Fatal("capacity")
	}
	for _, label := range []string{"Drop KVCache", "Swap KVCache", "Migrate KVCache"} {
		if len(r.MeanTTFT[label]) == 0 {
			t.Errorf("%s: no TTFT series", label)
		}
		// Under the overload burst every KVCache-centric mechanism
		// suffers a visible TTFT spike relative to P50.
		if r.PeakOverP50[label] < 2 {
			t.Errorf("%s: peak/P50 = %.1f, expected a spike", label, r.PeakOverP50[label])
		}
	}
	var buf bytes.Buffer
	PrintFigure2(&buf, r)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure5MoreDropsMoreLatency(t *testing.T) {
	cfg := Quick()
	cfg.Instances = 4 // widths 1, 2, 4
	rows, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Figure 5's takeaway: deeper pipelines (more dropped) have higher
	// latency. Compare DP vs deepest on TPOT P50 (the steady metric).
	dp, deepest := rows[0], rows[len(rows)-1]
	if deepest.TPOTP50 <= dp.TPOTP50 {
		t.Errorf("drop-%0.f%% TPOT %.4f <= DP %.4f", deepest.DropPct,
			deepest.TPOTP50, dp.TPOTP50)
	}
	var buf bytes.Buffer
	PrintFigure5(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure12And13EndToEnd(t *testing.T) {
	runs, err := RunAllSystems(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs.Systems) != 5 {
		t.Fatalf("systems = %d", len(runs.Systems))
	}
	ks := runs.Find(SysKunServe)
	if ks == nil {
		t.Fatal("no KunServe run")
	}
	// Headline shape: KunServe's tail TTFT beats the primary baseline
	// (vLLM DP) and is at worst comparable to every other baseline. The
	// paper's absolute 12.7-72.2x factors depend on a memory-rich
	// testbed; the simulated substrate reproduces the ordering (see
	// EXPERIMENTS.md for magnitude discussion).
	dp := runs.Find(SysVLLMDP)
	if ks.TTFTP99 >= dp.TTFTP99 {
		t.Errorf("KunServe P99 %.3fs >= vLLM (DP) %.3fs", ks.TTFTP99, dp.TTFTP99)
	}
	if ks.TTFTP50 >= dp.TTFTP50 {
		t.Errorf("KunServe P50 %.3fs >= vLLM (DP) %.3fs", ks.TTFTP50, dp.TTFTP50)
	}
	// Against the KVCache-centric mechanisms the tail win must be clear;
	// vLLM (PP) pre-pays the capacity cost statically, so KunServe only
	// needs to stay comparable on the tail while winning the median.
	for _, s := range []System{SysInferCept, SysLlumnix} {
		sr := runs.Find(s)
		if ks.TTFTP99 >= sr.TTFTP99 {
			t.Errorf("KunServe P99 %.3fs >= %s %.3fs", ks.TTFTP99, s, sr.TTFTP99)
		}
	}
	if pp := runs.Find(SysVLLMPP); pp != nil {
		if ks.TTFTP99 > pp.TTFTP99*1.5 {
			t.Errorf("KunServe P99 %.3fs not comparable to vLLM (PP) %.3fs",
				ks.TTFTP99, pp.TTFTP99)
		}
		if ks.TTFTP50 >= pp.TTFTP50 {
			t.Errorf("KunServe P50 %.3fs >= vLLM (PP) %.3fs (PP pays pipelining always)",
				ks.TTFTP50, pp.TTFTP50)
		}
	}
	// The paper's trade-off: KunServe may pay a TPOT premium over
	// vLLM (DP) for the TTFT win — it must not be catastrophic (< 3x).
	if ks.TPOTP50 > 3*dp.TPOTP50 {
		t.Errorf("KunServe TPOT P50 %.1fms > 3x DP %.1fms",
			ks.TPOTP50*1000, dp.TPOTP50*1000)
	}

	fig13 := Figure13From(runs)
	lo, hi := fig13.TailSpeedup()
	if hi <= 1 {
		t.Errorf("tail speedup upper bound %.2fx, want > 1x", hi)
	}
	t.Logf("tail TTFT speedup: %.1fx - %.1fx", lo, hi)
	// SLO violations must be non-increasing in the scale factor, and
	// KunServe's violations at scale 5 must be the lowest.
	for _, sr := range fig13.Systems {
		v := fig13.Violations[sr.System]
		for i := 1; i < len(v); i++ {
			if v[i] > v[i-1]+1e-9 {
				t.Errorf("%s: violations increased with scale: %v", sr.System, v)
				break
			}
		}
	}
	// Figure 13's claim holds from scale 4 up ("almost eliminates all
	// violations with a scale larger than 4"); below that KunServe's
	// deliberate TPOT trade-off costs it. Compare the mean over the
	// scale >= 4 entries (indices 2+ of scales 2..10).
	meanTail := func(v []float64) float64 {
		var s float64
		for _, x := range v[2:] {
			s += x
		}
		return s / float64(len(v)-2)
	}
	ksViol := meanTail(fig13.Violations[SysKunServe])
	for _, s := range []System{SysVLLMDP, SysInferCept, SysLlumnix} {
		if ksViol > meanTail(fig13.Violations[s])+0.02 {
			t.Errorf("KunServe mean violations at scale>=4 (%.3f) worse than %s (%.3f)",
				ksViol, s, meanTail(fig13.Violations[s]))
		}
	}
	var buf bytes.Buffer
	PrintFigure12(&buf, runs)
	PrintFigure13(&buf, fig13)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure14AblationImproves(t *testing.T) {
	rows, err := Figure14(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLabel := map[string]Figure14Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	// Dynamic drop delivers the bulk of the tail-latency reduction.
	dp := byLabel["vLLM (DP)"]
	drop := byLabel["+Dynamic drop"]
	if drop.TTFTP99 >= dp.TTFTP99 {
		t.Errorf("+Dynamic drop P99 %.3f >= vLLM (DP) %.3f", drop.TTFTP99, dp.TTFTP99)
	}
	// Lookahead reduces bubbles versus token-count formulation.
	coord := byLabel["+Coordinated ex."]
	look := byLabel["+Lookahead"]
	if look.BubbleRatio > 0 && coord.BubbleRatio > 0 &&
		look.BubbleRatio >= coord.BubbleRatio {
		t.Errorf("+Lookahead bubbles %.1f%% >= +Coordinated %.1f%%",
			look.BubbleRatio*100, coord.BubbleRatio*100)
	}
	var buf bytes.Buffer
	PrintFigure14(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure15AccuracyGap(t *testing.T) {
	r, err := Figure15(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NoPrefix) == 0 || len(r.WithPrefix) == 0 {
		t.Fatal("missing panels")
	}
	// §5.4: ours <5% deviation; attention-blind much worse.
	if r.OursMaxDev > 5 {
		t.Errorf("ours max deviation %.1f%%, paper reports <5%%", r.OursMaxDev)
	}
	if r.BlindMaxDev < 2*r.OursMaxDev {
		t.Errorf("blind max deviation %.1f%% not clearly worse than ours %.1f%%",
			r.BlindMaxDev, r.OursMaxDev)
	}
	var buf bytes.Buffer
	PrintFigure15(&buf, r)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure16RestoreHelps(t *testing.T) {
	cfg := Quick()
	cfg.Duration = 80 * sim.Second // two waves at reduced length
	r, err := Figure16(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ks := r.Rows[2]
	if ks.Drops == 0 {
		t.Error("KunServe never dropped in the long run")
	}
	if ks.Restores == 0 {
		t.Error("KunServe never restored")
	}
	noRestore := r.Rows[1]
	if noRestore.Restores != 0 {
		t.Error("w/o-restore rung restored")
	}
	// Restoration reduces P50 latencies versus staying pipelined.
	if ks.TPOTP50 >= noRestore.TPOTP50 {
		t.Errorf("restore TPOT P50 %.4f >= no-restore %.4f", ks.TPOTP50, noRestore.TPOTP50)
	}
	var buf bytes.Buffer
	PrintFigure16(&buf, r)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestFigure17KunServeStandsLonger(t *testing.T) {
	cfg := Quick()
	r, err := Figure17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	vllm, ks := r.Rows[0], r.Rows[1]
	if ks.Drops == 0 {
		t.Error("KunServe never dropped under the extreme burst")
	}
	// KunServe's capacity must exceed vLLM's after drops.
	if ks.CapacityGB <= vllm.CapacityGB {
		t.Errorf("KunServe capacity %.0f <= vLLM %.0f", ks.CapacityGB, vllm.CapacityGB)
	}
	// KunServe stands at least as long as vLLM before violating (the
	// paper reports 1.5x longer at testbed scale) and degrades less.
	if vllm.FirstViolation > 0 && ks.FirstViolation > 0 &&
		ks.FirstViolation < vllm.FirstViolation {
		t.Errorf("KunServe violated at %v before vLLM at %v",
			ks.FirstViolation, vllm.FirstViolation)
	}
	// Once the replayed burst exhausts even the dropped-parameter
	// memory, both systems drown (§5.6); KunServe must never be worse.
	if ks.WorstMeanTTFT > vllm.WorstMeanTTFT*1.02 {
		t.Errorf("KunServe worst mean TTFT %.1fs > vLLM %.1fs",
			ks.WorstMeanTTFT, vllm.WorstMeanTTFT)
	}
	var buf bytes.Buffer
	PrintFigure17(&buf, r)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Model == nil || cfg.GPU == nil || cfg.Instances != 8 {
		t.Error("defaults")
	}
	if cfg.BaseRPS <= 0 {
		t.Error("derived RPS")
	}
	b := ClusterB().withDefaults()
	if b.Model.Name != "Qwen-2.5-72B" || b.Instances != 2 {
		t.Error("cluster B")
	}
	// Derived RPS scales down for longer datasets.
	lb := Config{Dataset: workload.LongBenchDataset()}.withDefaults()
	bg := Config{Dataset: workload.BurstGPTDataset()}.withDefaults()
	if lb.BaseRPS >= bg.BaseRPS {
		t.Error("LongBench RPS should be lower than BurstGPT's")
	}
}

// A workload spec replaces the default burst trace end to end: the
// compiled trace carries the spec's clients and an experiment runs on it.
func TestConfigWithWorkloadSpec(t *testing.T) {
	js := `{
	  "name": "mix", "seed": 7, "duration_s": 32, "total_rps": 6,
	  "clients": [
	    {"name": "interactive", "rate_fraction": 0.7, "slo_class": "strict",
	     "arrival": {"process": "gamma", "cv": 2.0}, "dataset": "burstgpt"},
	    {"name": "batch", "rate_fraction": 0.3,
	     "arrival": {"process": "poisson"}, "dataset": "burstgpt"}
	  ]
	}`
	s, err := spec.Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.WorkloadSpec = s
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "mix" {
		t.Errorf("trace name %q, want spec name", tr.Name)
	}
	clients := map[string]bool{}
	for _, r := range tr.Requests {
		clients[r.Client] = true
	}
	if !clients["interactive"] || !clients["batch"] {
		t.Fatalf("spec clients missing from trace: %v", clients)
	}
	cl, err := cfg.Run(SysKunServe, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Collector.TTFT.Count() == 0 {
		t.Error("spec-driven run finished no requests")
	}
	// Without a spec the default burst trace is unchanged.
	cfg.WorkloadSpec = nil
	def, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "burstgpt" || len(def.Requests) == 0 {
		t.Error("default trace changed")
	}
}

// The tentpole guarantee: figure results from the concurrent runner are
// bit-identical to sequential execution for the same seed — every percentile,
// series, per-record latency, and reconfiguration event.
func TestRunAllSystemsParallelMatchesSequential(t *testing.T) {
	seqCfg := Quick()
	seqCfg.Parallel = 1
	parCfg := Quick()
	parCfg.Parallel = 8
	seq, err := RunAllSystems(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAllSystems(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		for i := range seq.Systems {
			if !reflect.DeepEqual(seq.Systems[i], par.Systems[i]) {
				t.Errorf("%s: parallel run differs from sequential", seq.Systems[i].System)
			}
		}
		t.Fatal("parallel figure results differ from sequential")
	}
}

// The sched refactor's hard constraint: the explicit default router and
// discipline reproduce the zero-value configuration exactly — every
// percentile, series, and per-record latency — so the default path is
// provably the pre-sched dispatcher and wait queue.
func TestDefaultRouterAndQueueByteIdentical(t *testing.T) {
	base, err := RunAllSystems(Quick())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.Router = "least-loaded"
	cfg.Queue = "fcfs"
	explicit, err := RunAllSystems(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, explicit) {
		t.Fatal("explicit least-loaded/fcfs differs from the zero-value default")
	}
	if err := cfg.ValidateSched(); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	cfg.Router = "nope"
	if err := cfg.ValidateSched(); err == nil {
		t.Error("unknown router accepted")
	}
	cfg.Router, cfg.Queue = "", "nope"
	if err := cfg.ValidateSched(); err == nil {
		t.Error("unknown queue accepted")
	}
}

// Alternative routers produce valid (and generally different) runs on the
// same trace through the same experiment path.
func TestRouterChangesPlacement(t *testing.T) {
	run := func(router string) *Figure12Result {
		cfg := Quick()
		cfg.Router = router
		runs, err := RunAllSystems(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	def := run("")
	rr := run("round-robin")
	for _, runs := range []*Figure12Result{def, rr} {
		for _, sr := range runs.Systems {
			if sr.Finished == 0 {
				t.Fatalf("router run finished nothing: %+v", sr.System)
			}
		}
	}
	// Round-robin ignores load, so under the burst at least one system's
	// latency profile must move.
	if reflect.DeepEqual(def, rr) {
		t.Error("round-robin routing produced runs identical to least-loaded")
	}
}

func classOf(t *testing.T, run *SLORun, name string) runner.ClassSummary {
	t.Helper()
	for _, cs := range run.PerClass {
		if cs.Class == name {
			return cs
		}
	}
	t.Fatalf("run %s/%s has no class %q", run.Discipline, run.System, name)
	return runner.ClassSummary{}
}

// The multi-tenant SLO-attainment experiment: runs under -parallel with
// bit-identical results, reports per-class attainment and goodput, and
// non-FCFS disciplines measurably change per-class P99 TTFT on the
// two-class spec.
func TestExperimentSLO(t *testing.T) {
	cfg := Quick()
	cfg.LoadMultiplier = 1.4 // deep enough overload that queues form
	seqCfg := cfg
	seqCfg.Parallel = 1
	parCfg := cfg
	parCfg.Parallel = 8
	seq, err := ExperimentSLO(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExperimentSLO(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel SLO experiment differs from sequential")
	}
	if len(seq.Runs) != len(SLODisciplines)*len(SLOSystems) {
		t.Fatalf("runs = %d", len(seq.Runs))
	}
	if !reflect.DeepEqual(seq.Classes, []string{"batch", "interactive"}) {
		t.Fatalf("classes = %v", seq.Classes)
	}
	for i := range seq.Runs {
		run := &seq.Runs[i]
		if run.Finished == 0 {
			t.Fatalf("%s/%s finished nothing", run.Discipline, run.System)
		}
		if len(run.PerClass) != 2 {
			t.Fatalf("%s/%s per-class entries = %d", run.Discipline, run.System, len(run.PerClass))
		}
		for _, cs := range run.PerClass {
			if cs.Finished == 0 || cs.TTFTTarget <= 0 {
				t.Errorf("%s/%s class %s: finished %d target %v",
					run.Discipline, run.System, cs.Class, cs.Finished, cs.TTFTTarget)
			}
			if cs.Attainment < 0 || cs.Attainment > 1 {
				t.Errorf("class %s attainment %v out of range", cs.Class, cs.Attainment)
			}
			if cs.Goodput <= 0 {
				t.Errorf("class %s goodput %v", cs.Class, cs.Goodput)
			}
		}
	}
	// The scheduling claim: under overload the priority discipline pulls
	// the interactive class's tail in while pushing the batch class's tail
	// out, relative to FCFS — measurably, on the primary baseline.
	fcfs := seq.Find("fcfs", SysVLLMDP)
	prio := seq.Find("priority", SysVLLMDP)
	edf := seq.Find("edf", SysVLLMDP)
	if fcfs == nil || prio == nil || edf == nil {
		t.Fatal("missing runs")
	}
	fi, pi := classOf(t, fcfs, "interactive"), classOf(t, prio, "interactive")
	fb, pb := classOf(t, fcfs, "batch"), classOf(t, prio, "batch")
	if pi.TTFTP99 >= fi.TTFTP99*0.98 {
		t.Errorf("priority interactive P99 %.3fs not measurably below FCFS %.3fs",
			pi.TTFTP99, fi.TTFTP99)
	}
	if pb.TTFTP99 <= fb.TTFTP99*1.02 {
		t.Errorf("priority batch P99 %.3fs not measurably above FCFS %.3fs",
			pb.TTFTP99, fb.TTFTP99)
	}
	if pi.Attainment < fi.Attainment {
		t.Errorf("priority interactive attainment %.3f < FCFS %.3f",
			pi.Attainment, fi.Attainment)
	}
	ei := classOf(t, edf, "interactive")
	eb := classOf(t, edf, "batch")
	if ei.TTFTP99 == fi.TTFTP99 && eb.TTFTP99 == fb.TTFTP99 {
		t.Error("EDF left both classes' P99 TTFT exactly at FCFS values")
	}
	var buf bytes.Buffer
	PrintExperimentSLO(&buf, seq)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestParseSweep(t *testing.T) {
	key, vals, err := ParseSweep("load=0.5:2.0:0.25")
	if err != nil || key != "load" {
		t.Fatalf("key=%q err=%v", key, err)
	}
	if len(vals) != 7 || vals[0] != 0.5 || math.Abs(vals[6]-2.0) > 1e-9 {
		t.Fatalf("vals = %v", vals)
	}
	key, vals, err = ParseSweep("seed=1:32:1")
	if err != nil || key != "seed" || len(vals) != 32 {
		t.Fatalf("seed sweep: key=%q n=%d err=%v", key, len(vals), err)
	}
	for _, bad := range []string{
		"load", "nope=1:2:1", "load=1:2", "load=1:2:0", "load=2:1:1", "load=a:2:1",
		"seed=1:4:0.5", "rep=1.5:3:1", "instances=2:8:1.5",
		// Non-finite bounds or step, and grids too large to enumerate.
		"load=NaN:2:1", "load=1:NaN:1", "load=1:2:NaN", "load=1:Inf:1",
		"load=-Inf:2:1", "load=1:2:Inf", "load=1:2:1e-300", "seed=1:1e300:1",
		"rep=1:100000:1",
		// Steps below the grid's resolution would repeat values.
		"load=1:1.000000001:1e-12", "seed=1e17:1.0000000000000002e17:1",
	} {
		if _, _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
}

func TestSweepReplicates(t *testing.T) {
	cfg := Quick()
	cfg.Duration = 32 * sim.Second
	systems := []System{SysVLLMDP, SysKunServe}
	res, err := Sweep(cfg, "rep", []float64{1, 2}, systems)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Value-major, system-minor ordering.
	want := []struct {
		v float64
		s System
	}{{1, SysVLLMDP}, {1, SysKunServe}, {2, SysVLLMDP}, {2, SysKunServe}}
	for i, c := range res.Cells {
		if c.Value != want[i].v || c.System != want[i].s {
			t.Errorf("cell %d = (%g, %s), want (%g, %s)", i, c.Value, c.System, want[i].v, want[i].s)
		}
		if c.Finished == 0 {
			t.Errorf("cell %d finished nothing", i)
		}
	}
	// Replicates derive distinct seeds, so the two reps see different
	// traces and different outcomes.
	if reflect.DeepEqual(res.Cells[0].TTFTs, res.Cells[2].TTFTs) {
		t.Error("replicates produced identical runs")
	}
	bands := res.Bands()
	if len(bands) != 2 {
		t.Fatalf("bands = %d", len(bands))
	}
	for _, b := range bands {
		if b.N != 2 || b.MeanP99 <= 0 || b.WorstP99 < b.MeanP99 {
			t.Errorf("band %+v malformed", b)
		}
	}
	var buf bytes.Buffer
	PrintSweep(&buf, res)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestNewPolicyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown system did not panic")
		}
	}()
	NewPolicy(System("nope"))
}

// The paged-KVCache refactor's hard constraint: with prefix caching off
// (the default), shared-prefix workload tags are inert — the run is
// DeepEqual to the zero-value configuration down to per-record latencies —
// and default summaries marshal without any PrefixCache key, so -exp all
// -json stays byte-identical to the pre-refactor output (CI diffs the
// binary output against main on top of this).
func TestPrefixCachingOffByteIdentical(t *testing.T) {
	base, err := RunAllSystems(Quick())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.PrefixCaching = false
	cfg.CacheEvict = ""
	explicit, err := RunAllSystems(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, explicit) {
		t.Fatal("explicit caching-off differs from the zero-value default")
	}
	for _, s := range base.Systems {
		if s.PrefixCache != nil {
			t.Fatalf("%s: default run carries a PrefixCache summary", s.System)
		}
		js, err := json.Marshal(s.Summary)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(js), "PrefixCache") {
			t.Fatalf("%s: default summary JSON mentions PrefixCache: %s", s.System, js)
		}
	}
	cfg.CacheEvict = "nope"
	if err := cfg.ValidateSched(); err == nil {
		t.Fatal("unknown eviction policy accepted")
	}
}

// ExperimentPrefix is the acceptance gate for the prefix-cache refactor:
// on a shared-prefix workload the cached run must report a nonzero hit
// rate and a lower mean TTFT than the sharing-off run of the same trace,
// and reconfigurations under a warm cache must report the cached blocks
// they destroyed.
func TestExperimentPrefix(t *testing.T) {
	res, err := ExperimentPrefix(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(PrefixShareRatios)*len(PrefixPolicies) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	off, lru := res.Row(1, "off"), res.Row(1, "lru")
	if off == nil || lru == nil {
		t.Fatal("missing full-share rows")
	}
	if lru.HitRate <= 0 || lru.PrefillTokensSaved <= 0 {
		t.Fatalf("no cache effect at full share: %+v", lru)
	}
	if lru.MeanTTFT >= off.MeanTTFT {
		t.Fatalf("caching did not improve mean TTFT: %.3fs vs %.3fs", lru.MeanTTFT, off.MeanTTFT)
	}
	if off.HitRate != 0 || off.PrefillTokensSaved != 0 {
		t.Fatalf("sharing-off run reported cache activity: %+v", off)
	}
	// Zero share ratio: caching on but nothing shareable — results match
	// the off run of the same trace.
	z0, zl := res.Row(0, "off"), res.Row(0, "lru")
	if z0.MeanTTFT != zl.MeanTTFT || z0.TTFTP99 != zl.TTFTP99 || zl.HitRate != 0 {
		t.Fatalf("zero-share rows diverged: %+v vs %+v", z0, zl)
	}
	// A drop plan executed under a warm cache reports what it evicted.
	if lru.Drops > 0 && lru.ReconfigEvicted == 0 {
		t.Fatalf("drops under warm cache reported no evicted cached blocks: %+v", lru)
	}
	var buf bytes.Buffer
	PrintExperimentPrefix(&buf, res)
	if !strings.Contains(buf.String(), "hit%") {
		t.Fatal("printer output missing")
	}
}

// The example spec drives the same acceptance through the CLI path.
func TestExperimentPrefixExampleSpec(t *testing.T) {
	s, err := spec.Load("../../examples/specs/shared_prefix.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Quick()
	cfg.WorkloadSpec = s
	res, err := ExperimentPrefix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, lru := res.Row(1, "off"), res.Row(1, "lru")
	if lru.HitRate <= 0 {
		t.Fatalf("example spec produced no hits: %+v", lru)
	}
	if lru.MeanTTFT >= off.MeanTTFT {
		t.Fatalf("example spec: caching did not lower mean TTFT (%.2fs vs %.2fs)",
			lru.MeanTTFT, off.MeanTTFT)
	}
	if lru.Drops > 0 && lru.ReconfigEvicted == 0 {
		t.Fatalf("warm-cache drop reported no evictions: %+v", lru)
	}
}
