// Command kunserve-sim regenerates the paper's tables and figures on the
// simulated serving substrate.
//
// Usage:
//
//	kunserve-sim -exp table1|fig2|fig5|fig12|fig13|fig12+13|fig14|fig15|fig16|fig17|slo|prefix|disagg|scale|all \
//	    [-scale quick|full|clusterb] [-dataset burstgpt|sharegpt|longbench] \
//	    [-instances N] [-seed N] [-duration SECONDS] [-load MULT] \
//	    [-parallel N] [-stream] [-json] [-list-exps] [-sweep key=lo:hi:step] [-spec workload.json] \
//	    [-router least-loaded|round-robin|p2c|least-kv|affinity|queue-depth] \
//	    [-queue fcfs|priority|edf] [-prefix-caching] [-cache-evict lru|fifo] \
//	    [-trace out.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -parallel bounds the worker pool the experiment run matrices execute on
// (default GOMAXPROCS); results are bit-identical whatever the value.
// -json emits machine-readable result structs instead of the paper-style
// text. -sweep runs the five systems across a parameter grid (e.g.
// load=0.5:2.0:0.25, or seed=1:32:1 for confidence bands) instead of a
// figure. -spec drives the experiments' trace from a declarative workload
// spec (multi-client mixes, gamma/weibull/diurnal/mmpp arrivals, trace
// replay, per-class SLO targets; see internal/workload/spec and
// examples/specs/) instead of the default BurstGPT burst schedule.
// -router and -queue select the scheduling layer's dispatch router and
// per-group wait-queue discipline (internal/sched); the defaults reproduce
// the original least-loaded + FCFS path byte-identically. -prefix-caching
// turns on content-addressed KVCache prefix sharing (spec clients with
// shared_prefix deduplicate their system prompts; summaries gain a
// PrefixCache section) and -cache-evict picks its cached-block eviction
// policy; both default off, which reproduces the identity-free allocator
// byte-for-byte. -exp slo runs the multi-tenant SLO-attainment experiment
// (disciplines x systems on a two-class workload, per-class attainment and
// goodput); -exp prefix sweeps share ratio x cache policy on a
// shared-prefix workload (the -spec file when given, else a built-in
// agentic mix); -exp disagg sweeps prefill:decode pool splits x load
// against the collocated vLLM (DP) and KunServe references, reporting
// stage-level queueing (prefill wait, KV transfer, decode wait); -exp scale
// runs the cluster-scale streaming sweep (a fleet ladder up to -instances,
// default 512, each serving an hour-class diurnal trace in bounded-memory
// mode). None of the four is part of "all" so that "all" output stays
// comparable across versions. -stream runs any experiment in bounded-memory
// streaming mode: the collector keeps reservoir samples instead of every
// record and arrivals enter the event queue lazily, so memory scales with
// live requests rather than trace length (percentiles become reservoir
// estimates; off by default, which reproduces full-retention output
// byte-for-byte). -list-exps prints each experiment with its description
// and exits.
//
// -trace writes a Chrome trace-event / Perfetto JSON record of every
// simulation the experiment ran (per-request lifecycle spans, dispatch
// decisions, queue and engine-stage events, KVCache activity, drop/restore
// reconfigurations, handoff transfers; see EXPERIMENTS.md for the schema
// and a Perfetto walkthrough). Tracing off — the default — costs nothing
// and reproduces untraced output byte-for-byte. -cpuprofile/-memprofile
// write Go pprof profiles of the run for hot-path work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"kunserve/internal/experiments"
	"kunserve/internal/obs"
	"kunserve/internal/runner"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/spec"
)

// expList pairs every -exp value with a one-line description (printed by
// -list-exps). "all" runs the paper figures; the slo, prefix, and disagg
// experiments are standalone so "all" output stays stable across versions.
var expList = []struct{ name, desc string }{
	{"table1", "Table 1: parameter memory vs HBM across the model zoo"},
	{"fig2", "Figure 2: TTFT spikes under the BurstGPT burst for drop/swap/migrate"},
	{"fig5", "Figure 5: latency vs static parameter-drop degree (pipeline depth)"},
	{"fig12", "Figure 12: memory/mean-TTFT/throughput timelines across the five systems"},
	{"fig13", "Figure 13: latency percentiles and SLO-violation ratios"},
	{"fig12+13", "Figures 12 and 13 off one shared five-system run set"},
	{"fig14", "Figure 14: ablation rungs (+Dynamic drop, +Coordinated ex., +Lookahead)"},
	{"fig15", "Figure 15: cost-model accuracy vs the attention-blind fit"},
	{"fig16", "Figure 16: long run with parameter restoration across waves"},
	{"fig17", "Figure 17: extreme replayed burst until both systems drown"},
	{"slo", "multi-tenant SLO attainment: queue disciplines x systems, per-class goodput"},
	{"prefix", "prefix caching: share ratio x eviction policy on a shared-prompt mix"},
	{"disagg", "prefill/decode disaggregation: pool splits x load vs collocated baselines"},
	{"scale", "cluster-scale streaming sweep: fleet ladder x hour-class diurnal trace, bounded memory"},
	{"all", "every paper figure (table1 fig2 fig5 fig12+13 fig14 fig15 fig16 fig17)"},
}

// validExps lists every -exp value, derived from expList.
var validExps = func() []string {
	out := make([]string, len(expList))
	for i, e := range expList {
		out[i] = e.name
	}
	return out
}()

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(validExps, ", "))
		scale     = flag.String("scale", "quick", "quick (2 instances, 64s), full (8 instances, 128s), clusterb (72B on H800)")
		dataset   = flag.String("dataset", "", "burstgpt, sharegpt or longbench (default per experiment)")
		instances = flag.Int("instances", 0, "override instance count")
		seed      = flag.Int64("seed", 0, "override RNG seed")
		duration  = flag.Float64("duration", 0, "override trace duration in seconds")
		load      = flag.Float64("load", 0, "load multiplier on the derived base RPS")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS); results are identical at any setting")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON summaries instead of paper-style text")
		sweepFlag = flag.String("sweep", "", "run a parameter sweep key=lo:hi:step (keys: "+strings.Join(experiments.SweepKeys, ", ")+") over the five systems")
		specFile  = flag.String("spec", "", "workload spec JSON driving the experiment trace")
		router    = flag.String("router", "", "dispatch router: "+strings.Join(sched.RouterNames, ", ")+" (default least-loaded)")
		queue     = flag.String("queue", "", "wait-queue discipline: "+strings.Join(sched.DisciplineNames, ", ")+" (default fcfs)")
		stream    = flag.Bool("stream", false, "bounded-memory streaming mode: reservoir percentiles and lazy arrivals (always on for -exp scale)")
		prefixOn  = flag.Bool("prefix-caching", false, "enable content-addressed KVCache prefix sharing (default off; off reproduces the identity-free allocator byte-for-byte)")
		evict     = flag.String("cache-evict", "", "cached-block eviction policy: lru (default), fifo; only meaningful with -prefix-caching")
		tracePath = flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON trace of every simulation to this file (load it at ui.perfetto.dev)")
		cpuProf   = flag.String("cpuprofile", "", "write a Go CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a Go heap profile after the run to this file")
		listExps  = flag.Bool("list-exps", false, "print every experiment name with a one-line description and exit")
	)
	flag.Parse()

	if *listExps {
		for _, e := range expList {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	if !slices.Contains(validExps, *exp) {
		fmt.Fprintf(os.Stderr, "unknown -exp %q (valid: %s)\n", *exp, strings.Join(validExps, ", "))
		os.Exit(2)
	}

	cfg := experiments.Quick()
	switch *scale {
	case "quick":
	case "full":
		cfg = experiments.Full()
	case "clusterb":
		cfg = experiments.ClusterB()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scale)
		os.Exit(2)
	}
	if *dataset != "" {
		ds, err := workload.DatasetByName(*dataset)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Dataset = ds
	}
	if *instances > 0 {
		cfg.Instances = *instances
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *duration > 0 {
		cfg.Duration = sim.DurationFromSeconds(*duration)
	}
	if *load > 0 {
		cfg.LoadMultiplier = *load
	}
	cfg.Parallel = *parallel
	cfg.Stream = *stream
	cfg.Router = *router
	cfg.Queue = *queue
	cfg.PrefixCaching = *prefixOn
	cfg.CacheEvict = *evict
	if *exp == "scale" {
		// The scale sweep targets cluster scale by default: 512 instances
		// over an hour-class trace, streaming forced on. Explicit
		// -instances/-duration still win.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["instances"] {
			cfg.Instances = 512
		}
		if !set["duration"] {
			cfg.Duration = 3600 * sim.Second
		}
	}
	if *tracePath != "" {
		cfg.TraceSink = obs.NewSink()
	}
	if err := cfg.ValidateSched(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *exp == "slo" && *queue != "" {
		fmt.Fprintln(os.Stderr, "note: -exp slo compares every discipline (fcfs, priority, edf); -queue is ignored there")
	}
	if *exp == "prefix" && (*prefixOn || *evict != "") {
		fmt.Fprintln(os.Stderr, "note: -exp prefix compares every cache policy (off, lru, fifo); -prefix-caching/-cache-evict are ignored there")
	}
	if *exp == "disagg" && *router != "" {
		fmt.Fprintln(os.Stderr, "note: -exp disagg routes its disaggregated cells with the queue-depth router; -router applies to the collocated baseline cells only")
	}
	if *specFile != "" {
		// The spec's own seed, duration, and rates govern the trace;
		// -seed still seeds the cluster and -load still scales KV
		// provisioning, but neither reshapes the spec trace.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "duration", "load":
				fmt.Fprintf(os.Stderr, "note: -%s does not affect the -spec trace (the spec's seed/duration/rates govern it)\n", f.Name)
			}
		})
		s, err := spec.Load(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.WorkloadSpec = s
		switch *exp {
		case "fig16", "table1", "all":
			fmt.Fprintln(os.Stderr, "note: fig16 and table1 build their own workloads and ignore -spec")
		case "disagg":
			fmt.Fprintln(os.Stderr, "note: -exp disagg sweeps load multipliers over the derived burst trace and ignores -spec")
		}
	}

	var stopCPU func() error
	if *cpuProf != "" {
		stop, err := runner.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopCPU = stop
	}

	var runErr error
	if *sweepFlag != "" {
		key, values, err := experiments.ParseSweep(*sweepFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "exp" {
				fmt.Fprintln(os.Stderr, "note: -exp is ignored in -sweep mode (the sweep runs the five systems)")
			}
		})
		runErr = runSweep(key, values, cfg, *jsonOut)
	} else {
		runErr = run(*exp, cfg, *jsonOut)
	}

	// Profiles and traces flush even when the run errored: a partial
	// trace of a failing experiment is exactly what one debugs with.
	if stopCPU != nil {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *memProf != "" {
		if err := runner.WriteHeapProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if cfg.TraceSink != nil {
		if err := cfg.TraceSink.WriteFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

func runSweep(key string, values []float64, cfg experiments.Config, jsonOut bool) error {
	res, err := experiments.Sweep(cfg, key, values, nil)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(os.Stdout, res)
	}
	experiments.PrintSweep(os.Stdout, res)
	return nil
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// artifact is one produced result: its JSON key, the typed value, and the
// paper-style printer.
type artifact struct {
	key   string
	value any
	print func(io.Writer)
}

// runExp executes one -exp selection; fig12+13 yields two artifacts off one
// shared run set.
func runExp(name string, cfg experiments.Config) ([]artifact, error) {
	one := func(key string, value any, print func(io.Writer)) []artifact {
		return []artifact{{key, value, print}}
	}
	switch name {
	case "table1":
		rows := experiments.Table1()
		return one("table1", rows, func(w io.Writer) { experiments.PrintTable1(w, rows) }), nil
	case "fig2":
		r, err := experiments.Figure2(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig2", r, func(w io.Writer) { experiments.PrintFigure2(w, r) }), nil
	case "fig5":
		rows, err := experiments.Figure5(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig5", rows, func(w io.Writer) { experiments.PrintFigure5(w, rows) }), nil
	case "fig12":
		r, err := experiments.Figure12(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig12", r, func(w io.Writer) { experiments.PrintFigure12(w, r) }), nil
	case "fig13":
		r, err := experiments.Figure13(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig13", r, func(w io.Writer) { experiments.PrintFigure13(w, r) }), nil
	case "fig12+13":
		runs, err := experiments.RunAllSystems(cfg)
		if err != nil {
			return nil, err
		}
		fig13 := experiments.Figure13From(runs)
		return []artifact{
			{"fig12", runs, func(w io.Writer) { experiments.PrintFigure12(w, runs) }},
			{"fig13", fig13, func(w io.Writer) { experiments.PrintFigure13(w, fig13) }},
		}, nil
	case "fig14":
		rows, err := experiments.Figure14(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig14", rows, func(w io.Writer) { experiments.PrintFigure14(w, rows) }), nil
	case "fig15":
		r, err := experiments.Figure15(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig15", r, func(w io.Writer) { experiments.PrintFigure15(w, r) }), nil
	case "fig16":
		r, err := experiments.Figure16(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig16", r, func(w io.Writer) { experiments.PrintFigure16(w, r) }), nil
	case "fig17":
		r, err := experiments.Figure17(cfg)
		if err != nil {
			return nil, err
		}
		return one("fig17", r, func(w io.Writer) { experiments.PrintFigure17(w, r) }), nil
	case "slo":
		r, err := experiments.ExperimentSLO(cfg)
		if err != nil {
			return nil, err
		}
		return one("slo", r, func(w io.Writer) { experiments.PrintExperimentSLO(w, r) }), nil
	case "prefix":
		r, err := experiments.ExperimentPrefix(cfg)
		if err != nil {
			return nil, err
		}
		return one("prefix", r, func(w io.Writer) { experiments.PrintExperimentPrefix(w, r) }), nil
	case "disagg":
		r, err := experiments.ExperimentDisagg(cfg)
		if err != nil {
			return nil, err
		}
		return one("disagg", r, func(w io.Writer) { experiments.PrintExperimentDisagg(w, r) }), nil
	case "scale":
		r, err := experiments.ExperimentScale(cfg)
		if err != nil {
			return nil, err
		}
		return one("scale", r, func(w io.Writer) { experiments.PrintExperimentScale(w, r) }), nil
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

func run(exp string, cfg experiments.Config, jsonOut bool) error {
	out := os.Stdout
	names := []string{exp}
	if exp == "all" {
		names = []string{"table1", "fig2", "fig5", "fig12+13", "fig14", "fig15", "fig16", "fig17"}
	}
	results := map[string]any{}
	for _, name := range names {
		arts, err := runExp(name, cfg)
		if err != nil {
			return err
		}
		for _, a := range arts {
			if jsonOut {
				results[a.key] = a.value
			} else {
				a.print(out)
			}
		}
	}
	if jsonOut {
		return emitJSON(out, results)
	}
	return nil
}
