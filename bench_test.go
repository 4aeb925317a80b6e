// Benchmark harness: one benchmark per paper table/figure (regenerating the
// artifact at reduced scale and reporting its headline metrics via
// b.ReportMetric) plus micro-benchmarks for the design choices DESIGN.md
// calls out (drop-plan generation, lookahead formulation, cost-model
// fitting, virtual-memory remap, coordinated transfer, event kernel).
//
// Run: go test -bench=. -benchmem
package kunserve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"kunserve/internal/baselines"
	"kunserve/internal/batching"
	"kunserve/internal/cluster"
	"kunserve/internal/core/lookahead"
	"kunserve/internal/core/planner"
	"kunserve/internal/costmodel"
	"kunserve/internal/experiments"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/memory"
	"kunserve/internal/model"
	"kunserve/internal/network"
	"kunserve/internal/obs"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// --- Table / figure regeneration benches -------------------------------

func BenchmarkTable1ModelMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 5 {
			b.Fatal("rows")
		}
	}
	rows := experiments.Table1()
	b.ReportMetric(rows[0].RatioPct, "qwen14b-ratio-%")
	b.ReportMetric(rows[3].RatioPct, "qwen3-235b-ratio-%")
}

func BenchmarkFigure2Overload(b *testing.B) {
	var r *experiments.Figure2Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure2(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PeakOverP50["Drop KVCache"], "drop-peak/p50-x")
	b.ReportMetric(r.PeakOverP50["Swap KVCache"], "swap-peak/p50-x")
	b.ReportMetric(r.PeakOverP50["Migrate KVCache"], "migrate-peak/p50-x")
}

func BenchmarkFigure5DropDegree(b *testing.B) {
	cfg := experiments.Quick()
	cfg.Instances = 4
	var rows []experiments.Figure5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TPOTP50*1000, "dp-tpot50-ms")
	b.ReportMetric(rows[len(rows)-1].TPOTP50*1000, "deepest-tpot50-ms")
}

func BenchmarkFigure12EndToEnd(b *testing.B) {
	var runs *experiments.Figure12Result
	var err error
	for i := 0; i < b.N; i++ {
		runs, err = experiments.RunAllSystems(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	ks := runs.Find(experiments.SysKunServe)
	dp := runs.Find(experiments.SysVLLMDP)
	b.ReportMetric(ks.TTFTP99, "kunserve-p99ttft-s")
	b.ReportMetric(dp.TTFTP99, "vllm-p99ttft-s")
	b.ReportMetric(ks.Throughput/1000, "kunserve-ktok/s")
}

func BenchmarkFigure13Percentiles(b *testing.B) {
	var fig *experiments.Figure13Result
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Figure13(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := fig.TailSpeedup()
	b.ReportMetric(lo, "tail-speedup-min-x")
	b.ReportMetric(hi, "tail-speedup-max-x")
	b.ReportMetric(fig.Violations[experiments.SysKunServe][3]*100, "kunserve-slo5-viol-%")
}

func BenchmarkFigure14Ablation(b *testing.B) {
	var rows []experiments.Figure14Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure14(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Label == "+Lookahead" {
			b.ReportMetric(r.BubbleRatio*100, "lookahead-bubble-%")
			b.ReportMetric(r.TTFTP99, "lookahead-p99ttft-s")
		}
		if r.Label == "+Coordinated ex." {
			b.ReportMetric(r.BubbleRatio*100, "tokencount-bubble-%")
		}
	}
}

func BenchmarkFigure15CostModel(b *testing.B) {
	var r *experiments.Figure15Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure15(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OursMaxDev, "ours-maxdev-%")
	b.ReportMetric(r.BlindMaxDev, "blind-maxdev-%")
}

func BenchmarkFigure16Restore(b *testing.B) {
	cfg := experiments.Quick()
	cfg.Duration = 160 * sim.Second
	var r *experiments.Figure16Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure16(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Rows[2].Drops), "drops")
	b.ReportMetric(float64(r.Rows[2].Restores), "restores")
	b.ReportMetric(r.Rows[2].TPOTP50*1000, "restore-tpot50-ms")
	b.ReportMetric(r.Rows[1].TPOTP50*1000, "norestore-tpot50-ms")
}

func BenchmarkFigure17ExtremeBurst(b *testing.B) {
	var r *experiments.Figure17Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure17(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Rows[1].CapacityGB, "kunserve-peakcap-GB")
	b.ReportMetric(r.Rows[0].CapacityGB, "vllm-cap-GB")
	b.ReportMetric(float64(r.Rows[1].Drops), "drops")
}

// BenchmarkRunnerParallelVsSequential measures the concurrent run-matrix
// harness: the five-system comparison executed on one worker versus
// GOMAXPROCS workers. The runs are bit-identical (the runner guarantees it;
// verified here); only the wall clock changes. On a multicore box speedup-x
// approaches min(workers, cells).
func BenchmarkRunnerParallelVsSequential(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	var seq, par time.Duration
	var seqRes, parRes *experiments.Figure12Result
	for i := 0; i < b.N; i++ {
		cfg := experiments.Quick()
		cfg.Parallel = 1
		start := time.Now()
		var err error
		if seqRes, err = experiments.RunAllSystems(cfg); err != nil {
			b.Fatal(err)
		}
		seq += time.Since(start)

		cfg.Parallel = workers
		start = time.Now()
		if parRes, err = experiments.RunAllSystems(cfg); err != nil {
			b.Fatal(err)
		}
		par += time.Since(start)
	}
	ks, kp := seqRes.Find(experiments.SysKunServe), parRes.Find(experiments.SysKunServe)
	if ks.TTFTP99 != kp.TTFTP99 || ks.Finished != kp.Finished {
		b.Fatal("parallel run diverged from sequential")
	}
	b.ReportMetric(seq.Seconds()/float64(b.N), "sequential-s")
	b.ReportMetric(par.Seconds()/float64(b.N), "parallel-s")
	b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkSweepHarness exercises the sweep path end to end (a small load
// grid across two systems) and reports its wall clock per grid cell.
func BenchmarkSweepHarness(b *testing.B) {
	systems := []experiments.System{experiments.SysVLLMDP, experiments.SysKunServe}
	var res *experiments.SweepResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := experiments.Quick()
		cfg.Duration = 32 * sim.Second
		res, err = experiments.Sweep(cfg, "load", []float64{0.8, 1.0, 1.2}, systems)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Cells)), "cells")
	b.ReportMetric(res.Bands()[0].MeanP99, "band0-meanp99-s")
}

// --- KVCache allocator benches ------------------------------------------
//
// BENCH_kvcache.json records the first committed baseline of these numbers
// (plus the Figure 2 wall time above) so later PRs have a trajectory.

// BenchmarkKVCacheAllocatorChurn measures the block-table allocator on the
// identity-free path every default run takes: admit, chunked-prefill
// appends, decode appends, free. ops = one full request lifecycle.
func BenchmarkKVCacheAllocatorChurn(b *testing.B) {
	p := kvcache.NewPool(4096, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p.NewSeq(0)
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < 4; c++ { // 4 prefill chunks of 512
			if err := s.Append(512); err != nil {
				b.Fatal(err)
			}
		}
		for d := 0; d < 64; d++ { // 64 decode tokens
			if err := s.Append(1); err != nil {
				b.Fatal(err)
			}
		}
		s.Free()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lifecycles/s")
}

// BenchmarkKVCachePrefixSharing measures the sharing path: every request
// reuses a 1000-token prefix chain (publish, match, boundary divergence,
// cache churn).
func BenchmarkKVCachePrefixSharing(b *testing.B) {
	p := kvcache.NewPool(4096, 64)
	p.EnableSharing(kvcache.EvictLRU)
	pfx := kvcache.Prefix{ID: "agent", Tokens: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, cached, err := p.NewSeqCached(pfx)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Append(1500 - cached); err != nil {
			b.Fatal(err)
		}
		for d := 0; d < 64; d++ {
			if err := s.Append(1); err != nil {
				b.Fatal(err)
			}
		}
		s.Free()
	}
	b.StopTimer()
	st := p.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lifecycles/s")
	if b.N > 1 && st.HitTokens == 0 {
		b.Fatal("sharing bench never hit")
	}
	b.ReportMetric(float64(st.HitTokens)/float64(b.N), "hit-tok/op")
}

// BenchmarkKVCacheBlockCrossing prices the decode path's block edge. One op
// fills a sequence's tail through Room and Commit and appends the token
// that opens its next block, as the engine's write-back does at a
// crossing. 256 pools of 64 sequences are visited in a scattered order, so
// the working set is far larger than the cache. A sequence that reaches
// 2048 tokens is freed and replaced by a fresh prompt (churn). With
// sharing on, every prompt starts with one 500-token prefix per pool.
func BenchmarkKVCacheBlockCrossing(b *testing.B) {
	for _, sharing := range []bool{false, true} {
		b.Run(fmt.Sprintf("sharing=%v", sharing), func(b *testing.B) {
			benchBlockCrossing(b, sharing)
		})
	}
}

func benchBlockCrossing(b *testing.B, sharing bool) {
	const pools, perPool, maxTokens, bt = 256, 64, 2048, 64
	pfx := kvcache.Prefix{ID: "system", Tokens: 500}
	admit := func(p *kvcache.Pool, prompt int) *kvcache.Seq {
		if !sharing {
			s, err := p.NewSeq(prompt)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
		s, cached, err := p.NewSeqCached(pfx)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Append(prompt - cached); err != nil {
			b.Fatal(err)
		}
		return s
	}
	prompt := func(k int) int { return 600 + k*37%1000 }
	ps := make([]*kvcache.Pool, pools)
	seqs := make([]*kvcache.Seq, pools*perPool)
	for i := range ps {
		ps[i] = kvcache.NewPool(perPool*maxTokens/bt+perPool, bt)
		if sharing {
			ps[i].EnableSharing(kvcache.EvictLRU)
		}
		for j := 0; j < perPool; j++ {
			k := i*perPool + j
			seqs[k] = admit(ps[i], prompt(k))
		}
	}
	rng := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		k := int(rng>>33) % len(seqs)
		s := seqs[k]
		s.Commit(s.Room())
		if s.Tokens() >= maxTokens {
			s.Free()
			seqs[k] = admit(ps[k/perPool], prompt(k+i))
			continue
		}
		if err := s.Append(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentPrefix regenerates the -exp prefix grid at quick scale
// and reports its headline effect.
func BenchmarkExperimentPrefix(b *testing.B) {
	var r *experiments.PrefixResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ExperimentPrefix(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	off, lru := r.Row(1, "off"), r.Row(1, "lru")
	b.ReportMetric(lru.HitRate*100, "hit-%")
	b.ReportMetric(off.MeanTTFT/lru.MeanTTFT, "ttft-speedup-x")
}

// --- Execution-engine / disaggregation benches ---------------------------
//
// BENCH_disagg.json records the committed baseline of these numbers (plus
// the Figure 2 wall time above) so later PRs have a trajectory.

// BenchmarkEngineRoundThroughput measures the role-aware execution
// engine's scheduling-round rate on the default collocated path: one
// single-instance group serving a steady trace, reported as completed
// rounds per wall-clock second.
func BenchmarkEngineRoundThroughput(b *testing.B) {
	tr := workload.Generate(1, 16*sim.Second, workload.SteadySchedule(4), workload.BurstGPTDataset())
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := cluster.New(cluster.Config{
			Seed:      1,
			Model:     model.Qwen25_14B(),
			GPU:       gpu.A800(),
			Instances: 1,
			Policy:    baselines.VLLMDP{},
		})
		if err != nil {
			b.Fatal(err)
		}
		cl.Serve(tr, sim.FromSeconds(120))
		for _, g := range cl.Groups() {
			rounds += g.RoundsRun()
		}
	}
	if rounds == 0 {
		b.Fatal("no rounds ran")
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkExperimentDisagg regenerates the -exp disagg grid at quick
// scale and reports the balanced split's standing at the overload point.
func BenchmarkExperimentDisagg(b *testing.B) {
	var r *experiments.DisaggResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ExperimentDisagg(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	hi := experiments.DisaggLoadPoints[len(experiments.DisaggLoadPoints)-1]
	balanced := r.Row("Disagg (2P:2D)", hi)
	dp := r.Row("vLLM (DP)", hi)
	b.ReportMetric(balanced.TPOTP99*1000, "balanced-p99tpot-ms")
	b.ReportMetric(dp.TPOTP99*1000, "vllm-p99tpot-ms")
	b.ReportMetric(float64(balanced.Handoffs), "handoffs")
	b.ReportMetric(balanced.TransferP99*1000, "p99-xfer-ms")
}

// BenchmarkScaleFleet prices the cluster-scale streaming path: a small
// fleet ladder serving a diurnal trace with bounded metrics — the -exp
// scale machinery at benchmark-friendly size.
func BenchmarkScaleFleet(b *testing.B) {
	var r *experiments.ScaleResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg := experiments.Quick()
		cfg.Instances = 8
		cfg.Duration = 32 * sim.Second
		r, err = experiments.ExperimentScale(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	top := r.Rungs[len(r.Rungs)-1]
	b.ReportMetric(float64(top.Requests), "top-rung-reqs")
	b.ReportMetric(top.Systems[len(top.Systems)-1].Throughput, "kunserve-tok/s")
}

// BenchmarkTracingOverhead runs the same fig2 experiment untraced and
// traced. The "disabled" case is the guarantee that matters — a nil
// tracer must cost nothing on the hot paths (acceptance bound: <5% vs an
// uninstrumented build); "enabled" prices full event recording.
func BenchmarkTracingOverhead(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		events := 0
		for i := 0; i < b.N; i++ {
			cfg := experiments.Quick()
			if traced {
				cfg.TraceSink = obs.NewSink()
			}
			if _, err := experiments.Figure2(cfg); err != nil {
				b.Fatal(err)
			}
			if traced {
				events = cfg.TraceSink.Events()
			}
		}
		if traced {
			b.ReportMetric(float64(events), "events")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// --- Design-choice micro-benches ----------------------------------------

func BenchmarkDropPlanner(b *testing.B) {
	groups := make([]planner.GroupState, 64)
	for i := range groups {
		groups[i] = planner.GroupState{ID: i, Size: 1 + i%3}
	}
	const copyBytes = 28 << 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Derive(groups, copyBytes, 20*copyBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookaheadFormulation(b *testing.B) {
	timer := gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)
	m, err := costmodel.FitFromTimer(timer)
	if err != nil {
		b.Fatal(err)
	}
	f := &lookahead.Former{Model: m}
	var items []batching.Item
	for i := 0; i < 64; i++ {
		r := request.New(i, 0, 500+i*100, 8)
		items = append(items, batching.Item{Req: r, IsPrefill: true, Chunk: 500 + i*100})
	}
	var s batching.Split
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := f.Form(&s, nil, items, 4); len(got) == 0 {
			b.Fatal("no microbatches")
		}
	}
}

func BenchmarkTokenCountFormulation(b *testing.B) {
	var items []batching.Item
	for i := 0; i < 64; i++ {
		r := request.New(i, 0, 500+i*100, 8)
		items = append(items, batching.Item{Req: r, IsPrefill: true, Chunk: 500 + i*100})
	}
	var s batching.Split
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := batching.SplitByTokenCount(&s, nil, items, 8); len(got) == 0 {
			b.Fatal("no microbatches")
		}
	}
}

func BenchmarkCostModelFit(b *testing.B) {
	timer := gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)
	for i := 0; i < b.N; i++ {
		if _, err := costmodel.FitFromTimer(timer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostModelEval(b *testing.B) {
	timer := gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)
	m, err := costmodel.FitFromTimer(timer)
	if err != nil {
		b.Fatal(err)
	}
	work := make([]gpu.ChunkWork, 64)
	for i := range work {
		work[i] = gpu.ChunkWork{PrefixLen: i * 50, ChunkLen: 1 + i*10}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.BatchSeconds(work) <= 0 {
			b.Fatal("degenerate")
		}
	}
}

func BenchmarkMemoryRemap(b *testing.B) {
	mgr := memory.NewManager(80 << 30)
	if _, err := mgr.Reserve("params", 28<<30); err != nil {
		b.Fatal(err)
	}
	if _, err := mgr.Reserve("kvcache", 40<<30); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.MoveBetween("params", "kvcache", 14<<30); err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.MoveBetween("kvcache", "params", 14<<30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoordinatedExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		l := network.NewLink(s, "x", network.RDMA200, network.DefaultLatency)
		// 10 GB exchange in 256 MiB chunks with interleaved activations.
		done := false
		l.SendChunked(10<<30, 256<<20, network.PriorityBulk, nil, func() { done = true })
		for j := 0; j < 100; j++ {
			l.Send(1<<20, network.PriorityActivation, nil)
		}
		s.Run()
		if !done {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkPreemptReadmit prices one membership churn cycle of
// recompute-on-pressure at two lane sizes: Victim picks the youngest
// unreserved request, PreemptRecompute drops and re-queues it, and the
// next round re-admits it. A small token budget keeps most of the lane
// prefilling and unreserved, so a victim always exists; each cycle also
// pays the one scheduling round the re-admission rides on.
func BenchmarkPreemptReadmit(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("lane=%d", n), func(b *testing.B) {
			cl, err := cluster.New(cluster.Config{
				Seed:          1,
				Model:         model.Qwen25_14B(),
				GPU:           gpu.A800(),
				Instances:     1,
				Policy:        baselines.VLLMDP{},
				Budget:        batching.Budget{MaxTokens: 32},
				MetricsWindow: 10000 * sim.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := cl.Dispatch(request.New(i, sim.Time(i), 16, 1<<30)); err != nil {
					b.Fatal(err)
				}
			}
			g := cl.Groups()[0]
			for step := 0; step < 200; step++ {
				cl.Sim.Step()
			}
			if g.RunningLen() != n {
				b.Fatalf("%d of %d requests running", g.RunningLen(), n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := g.Victim()
				if v == nil {
					b.Fatal("no victim")
				}
				g.PreemptRecompute(v)
				for g.RunningLen() < n {
					cl.Sim.Step()
				}
			}
		})
	}
}

// BenchmarkStallCycle prices InferCept's bookkeeping for one swap at two
// lane sizes with the youngest quarter of the lane swapped out: Victim
// finds the youngest unstalled request past the swapped tail, Stall swaps
// it out, EachStalled visits every swapped request, as InferCept's swap-in
// scan does each round, and Unstall resumes the victim. The group is
// draining, so no round runs and Unstall's wake-up starts none.
func BenchmarkStallCycle(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("lane=%d", n), func(b *testing.B) {
			cl, err := cluster.New(cluster.Config{
				Seed:          1,
				Model:         model.Qwen25_14B(),
				GPU:           gpu.A800(),
				Instances:     1,
				Policy:        baselines.VLLMDP{},
				Budget:        batching.Budget{MaxTokens: 32},
				MetricsWindow: 10000 * sim.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := cl.Dispatch(request.New(i, sim.Time(i), 16, 1<<30)); err != nil {
					b.Fatal(err)
				}
			}
			g := cl.Groups()[0]
			for step := 0; step < 200; step++ {
				cl.Sim.Step()
			}
			if g.RunningLen() != n {
				b.Fatalf("%d of %d requests running", g.RunningLen(), n)
			}
			g.Drain(func() {})
			for i := 0; i < n/4; i++ {
				v := g.Victim()
				if v == nil {
					b.Fatal("no victim")
				}
				g.Stall(v, request.StateSwapped)
			}
			swapped := 0
			visit := func(*request.Request) { swapped++ }
			cycle := func() {
				v := g.Victim()
				if v == nil {
					b.Fatal("no victim")
				}
				g.Stall(v, request.StateSwapped)
				g.EachStalled(visit)
				g.Unstall(v)
			}
			// One cycle outside the timer grows EachStalled's scratch.
			cycle()
			swapped = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			if want := b.N * (n/4 + 1); swapped != want {
				b.Fatalf("EachStalled visited %d swapped requests, want %d", swapped, want)
			}
		})
	}
}

// BenchmarkSteadyDecode prices the steady decode token at three lane
// sizes: one instance holds 8, 25 or 128 requests in lockstep decode (same
// prompt, outputs too long to finish), and each iteration runs one
// scheduling round, so ns/token is the engine's, the pipeline's and the
// event kernel's per-token cost with nothing else in the way. A per-token
// cost that grows with the lane is work that grows with the running set.
// Every 50000/n rounds (2000 at 25 requests) a fresh cluster replaces the
// old one outside the timer, so contexts never grow into memory pressure.
func BenchmarkSteadyDecode(b *testing.B) {
	for _, reqs := range []int{8, 25, 128} {
		b.Run(fmt.Sprintf("reqs=%d", reqs), func(b *testing.B) { steadyDecode(b, baselines.VLLMDP{}, 1, reqs) })
	}
}

// BenchmarkSteadyDecodePipelined is BenchmarkSteadyDecode on one two-stage
// group, vLLM (PP)'s pair of half-model instances, under the token-count
// and the lookahead former: ns/token adds microbatch formation and the
// stage-to-stage activation hand-offs to the steady decode token's cost.
func BenchmarkSteadyDecodePipelined(b *testing.B) {
	cm, err := costmodel.FitFromTimer(gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []struct {
		name string
		pol  cluster.Policy
	}{
		{"token-count", baselines.VLLMPP()},
		{"lookahead", lookaheadPP{baselines.VLLMPP(), &lookahead.Former{Model: cm}}},
	} {
		for _, reqs := range []int{8, 25, 128} {
			b.Run(fmt.Sprintf("%s/reqs=%d", p.name, reqs), func(b *testing.B) { steadyDecode(b, p.pol, 2, reqs) })
		}
	}
}

// lookaheadPP is vLLM (PP) with KunServe's lookahead former.
type lookaheadPP struct {
	baselines.StaticPP
	former cluster.Former
}

func (p lookaheadPP) Former() cluster.Former { return p.former }

// BenchmarkBlockCrossing prices the decode token that crosses into a new
// KV block: one instance with 4-token blocks holds 64 or 512 requests in
// lockstep decode, their prompts staggered over a block (61–64 tokens), so
// every round a quarter of the lane crosses. Each iteration runs one
// scheduling round; ns/token is BenchmarkSteadyDecode's with a crossing
// every fourth token.
func BenchmarkBlockCrossing(b *testing.B) {
	for _, reqs := range []int{64, 512} {
		b.Run(fmt.Sprintf("lane=%d", reqs), func(b *testing.B) {
			decodeRounds(b, cluster.Config{Instances: 1, Policy: baselines.VLLMDP{}, BlockTokens: 4},
				reqs, func(i int) int { return 61 + i%4 })
		})
	}
}

// steadyDecode runs BenchmarkSteadyDecode's measurement on a cluster of
// instances serving one group under pol.
func steadyDecode(b *testing.B, pol cluster.Policy, instances, reqs int) {
	decodeRounds(b, cluster.Config{Instances: instances, Policy: pol}, reqs, func(int) int { return 64 })
}

// decodeRounds times scheduling rounds of reqs requests in steady decode
// on one group of a cluster built from cfg (seed, model, GPU and metrics
// window filled in), request i with a prompt of prompt(i) tokens and an
// output too long to finish. Timing starts once every prompt is prefilled
// (the default budget prefills 2048 tokens a round) and at least eight
// rounds ran. Every 50000/reqs rounds a fresh cluster replaces the old one
// outside the timer, so contexts never grow into memory pressure.
func decodeRounds(b *testing.B, cfg cluster.Config, reqs int, prompt func(i int) int) {
	episode := max(50000/reqs, 1)
	cfg.Seed, cfg.Model, cfg.GPU, cfg.MetricsWindow = 1, model.Qwen25_14B(), gpu.A800(), 10000*sim.Second
	prompts := 0
	for i := range reqs {
		prompts += prompt(i)
	}
	warm := 8 + prompts/batching.DefaultBudget().MaxTokens
	var cl *cluster.Cluster
	var g *cluster.Group
	fresh := func() {
		var err error
		cl, err = cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(cl.Groups()) != 1 {
			b.Fatalf("%d groups, want one", len(cl.Groups()))
		}
		for i := 0; i < reqs; i++ {
			if err := cl.Dispatch(request.New(i, 0, prompt(i), 1<<30)); err != nil {
				b.Fatal(err)
			}
		}
		g = cl.Groups()[0]
		for g.RoundsRun() < warm {
			cl.Sim.Step()
		}
		if g.RunningLen() != reqs {
			b.Fatalf("%d of %d requests running", g.RunningLen(), reqs)
		}
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%episode == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		for n := g.RoundsRun(); g.RoundsRun() == n; {
			cl.Sim.Step()
		}
	}
	b.StopTimer()
	if g.RunningLen() != reqs || g.Preemptions() != 0 {
		b.Fatalf("%d requests running, %d preempted: decode was not steady", g.RunningLen(), g.Preemptions())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs*b.N), "ns/token")
}

// BenchmarkDispatch512 prices pure routing on a 512-group fleet: each
// iteration stands up a fresh DP cluster and pushes a batch of requests
// through Cluster.Dispatch with no simulation time advancing, so the cost
// measured is candidate-set maintenance plus the index pick, O(log n) per
// dispatch, under each of the two routers.
func BenchmarkDispatch512(b *testing.B) {
	const fleet = 512
	const batch = 4096
	bench := func(router sched.Router) func(b *testing.B) {
		return func(b *testing.B) {
			dispatched := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := cluster.New(cluster.Config{
					Seed:      1,
					Model:     model.Qwen25_14B(),
					GPU:       gpu.A800(),
					Instances: fleet,
					Policy:    baselines.VLLMDP{},
					Router:    router,
				})
				if err != nil {
					b.Fatal(err)
				}
				reqs := make([]*request.Request, batch)
				for j := range reqs {
					reqs[j] = request.New(j, 0, 256, 32)
				}
				b.StartTimer()
				for _, r := range reqs {
					if err := cl.Dispatch(r); err != nil {
						b.Fatal(err)
					}
				}
				dispatched += batch
			}
			b.ReportMetric(float64(dispatched)/b.Elapsed().Seconds(), "dispatch/s")
		}
	}
	for _, r := range []sched.Router{sched.NewLeastLoaded(), sched.NewQueueDepth()} {
		b.Run(r.Name(), bench(r))
	}
}

// BenchmarkSimKernel times one event's schedule and fire. "single" keeps one
// event pending; "pending=N" holds N events, each rescheduling itself 16–33 ms
// ahead when it fires, the spread of fleet-scale engine rounds; "burst" fires
// cohorts of 128 same-instant events, each cohort scheduled in a row.
func BenchmarkSimKernel(b *testing.B) {
	perEvent := func(b *testing.B, s *sim.Simulation) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		b.ReportMetric(float64(s.Processed), "events")
	}
	b.Run("single", func(b *testing.B) {
		s := sim.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(sim.Microsecond, "e", func() {})
			s.Step()
		}
		perEvent(b, s)
	})
	// Delays drawn once, uniform over [16.8, 33.5) ms.
	rng := rand.New(rand.NewSource(1))
	delays := make([]sim.Duration, 4096)
	for i := range delays {
		delays[i] = 16800*sim.Microsecond + sim.Duration(rng.Int63n(int64(16700*sim.Microsecond)))
	}
	for _, depth := range []int{8, 128, 512, 2048} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			s := sim.New(1)
			next := 0
			var again func()
			again = func() {
				s.After(delays[next&(len(delays)-1)], "e", again)
				next++
			}
			for i := 0; i < depth; i++ {
				again()
			}
			// Reach the steady spread before timing.
			for i := 0; i < 4*depth; i++ {
				s.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			perEvent(b, s)
		})
	}
	b.Run("burst", func(b *testing.B) {
		s := sim.New(1)
		fn := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Pending() == 0 {
				for j := 0; j < 128; j++ {
					s.After(sim.Millisecond, "burst", fn)
				}
			}
			s.Step()
		}
		perEvent(b, s)
	})
}
