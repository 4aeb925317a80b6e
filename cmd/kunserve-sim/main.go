// Command kunserve-sim regenerates the paper's tables and figures on the
// simulated serving substrate.
//
// Usage:
//
//	kunserve-sim -exp table1|fig2|fig5|fig12|fig13|fig12+13|fig14|fig15|fig16|fig17|slo|prefix|disagg|scale|all \
//	    [-scale quick|full|clusterb] [-dataset burstgpt|sharegpt|longbench] \
//	    [-instances N] [-seed N] [-duration SECONDS] [-load MULT] \
//	    [-parallel N] [-json] [-list-exps] [-sweep key=lo:hi:step] [-spec workload.json] \
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
// -queue selects the per-group wait-queue discipline (internal/sched); the
// default reproduces the original FCFS path byte-identically. -prefix-caching
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
// comparable across versions. Only -exp scale bounds its metrics (reservoir
// percentiles, no per-request records); every other experiment keeps every
// record, which Figure 13's SLO ratios are computed from. -list-exps prints
// each experiment with its description and exits.
//
// -trace writes a Chrome trace-event / Perfetto JSON record of every
// simulation the experiment ran (per-request lifecycle spans, dispatch
// decisions, queue and engine-stage events, KVCache activity, drop/restore
// reconfigurations, handoff transfers; see EXPERIMENTS.md for the schema
// and a Perfetto walkthrough). Tracing off — the default — costs nothing
// and reproduces untraced output byte-for-byte. -cpuprofile/-memprofile
// write Go pprof profiles of the run for hot-path work.
//
// A bad invocation exits with status 2 and a failed run with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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

// artifact is one produced result: its JSON key, the typed value, and the
// paper-style printer.
type artifact struct {
	key   string
	value any
	print func(io.Writer)
}

// experiment is one -exp value: -list-exps prints its description, -exp all
// runs it when inAll is set, and yield runs it. Only "all" has no yield.
type experiment struct {
	name, desc string
	inAll      bool
	yield      func(experiments.Config) ([]artifact, error)
}

// expList is every -exp value in -list-exps order, which is also the order
// "all" runs its members in. The slo, prefix, disagg and scale experiments
// stay out of "all" so that its output stays comparable across versions.
var expList = []experiment{
	fig("table1", "Table 1: parameter memory vs HBM across the model zoo", true,
		func(experiments.Config) ([]experiments.Table1Row, error) { return experiments.Table1(), nil }, experiments.PrintTable1),
	fig("fig2", "Figure 2: TTFT spikes under the BurstGPT burst for drop/swap/migrate", true, experiments.Figure2, experiments.PrintFigure2),
	fig("fig5", "Figure 5: latency vs static parameter-drop degree (pipeline depth)", true, experiments.Figure5, experiments.PrintFigure5),
	fig("fig12", "Figure 12: memory/mean-TTFT/throughput timelines across the five systems", false, experiments.Figure12, experiments.PrintFigure12),
	fig("fig13", "Figure 13: latency percentiles and SLO-violation ratios", false, experiments.Figure13, experiments.PrintFigure13),
	{"fig12+13", "Figures 12 and 13 off one shared five-system run set", true, figures12And13},
	fig("fig14", "Figure 14: ablation rungs (+Dynamic drop, +Coordinated ex., +Lookahead)", true, experiments.Figure14, experiments.PrintFigure14),
	fig("fig15", "Figure 15: cost-model accuracy vs the attention-blind fit", true, experiments.Figure15, experiments.PrintFigure15),
	fig("fig16", "Figure 16: long run with parameter restoration across waves", true, experiments.Figure16, experiments.PrintFigure16),
	fig("fig17", "Figure 17: extreme replayed burst until both systems drown", true, experiments.Figure17, experiments.PrintFigure17),
	fig("slo", "multi-tenant SLO attainment: queue disciplines x systems, per-class goodput", false, experiments.ExperimentSLO, experiments.PrintExperimentSLO),
	fig("prefix", "prefix caching: share ratio x eviction policy on a shared-prompt mix", false, experiments.ExperimentPrefix, experiments.PrintExperimentPrefix),
	fig("disagg", "prefill/decode disaggregation: pool splits x load vs collocated baselines", false, experiments.ExperimentDisagg, experiments.PrintExperimentDisagg),
	fig("scale", "cluster-scale streaming sweep: fleet ladder x hour-class diurnal trace, bounded memory", false, experiments.ExperimentScale, experiments.PrintExperimentScale),
	{"all", "every paper figure (table1 fig2 fig5 fig12+13 fig14 fig15 fig16 fig17)", false, nil},
}

// fig makes the experiment whose one artifact is f's result, keyed by the
// experiment's name.
func fig[T any](name, desc string, inAll bool, f func(experiments.Config) (T, error), print func(io.Writer, T)) experiment {
	return experiment{name, desc, inAll, func(cfg experiments.Config) ([]artifact, error) {
		v, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return []artifact{{name, v, func(w io.Writer) { print(w, v) }}}, nil
	}}
}

// figures12And13 yields Figures 12 and 13 off one shared run set.
func figures12And13(cfg experiments.Config) ([]artifact, error) {
	runs, err := experiments.RunAllSystems(cfg)
	if err != nil {
		return nil, err
	}
	fig13 := experiments.Figure13From(runs)
	return []artifact{
		{"fig12", runs, func(w io.Writer) { experiments.PrintFigure12(w, runs) }},
		{"fig13", fig13, func(w io.Writer) { experiments.PrintFigure13(w, fig13) }},
	}, nil
}

// expNames lists every -exp value.
func expNames() string {
	names := make([]string, len(expList))
	for i, e := range expList {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// usageError is a bad invocation, which exits 2; any other error exits 1.
// printed marks a flag parse error, which the flag set has already printed
// with the usage text.
type usageError struct {
	error
	printed bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		os.Exit(report(os.Stderr, err))
	}
}

// report prints a failed run's error to w, unless the flag set already
// has, and returns the exit status: 0 for -h, 2 for a usage error and 1
// for a run that failed.
func report(w io.Writer, err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var ue usageError
	isUsage := errors.As(err, &ue)
	if !isUsage || !ue.printed {
		fmt.Fprintln(w, err)
	}
	if isUsage {
		return 2
	}
	return 1
}

// run is the command: it parses args on a fresh flag set, runs the
// selected experiment or sweep, writes its output to stdout and its notes
// and usage text to stderr, and returns any other error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: "+expNames())
		scale     = fs.String("scale", "quick", "quick (2 instances, 64s), full (8 instances, 128s), clusterb (72B on H800)")
		dataset   = fs.String("dataset", "", "burstgpt, sharegpt or longbench (default per experiment)")
		instances = fs.Int("instances", 0, "override instance count")
		seed      = fs.Int64("seed", 0, "override RNG seed")
		duration  = fs.Float64("duration", 0, "override trace duration in seconds")
		load      = fs.Float64("load", 0, "load multiplier on the derived base RPS")
		parallel  = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS); results are identical at any setting")
		jsonOut   = fs.Bool("json", false, "emit machine-readable JSON summaries instead of paper-style text")
		sweepFlag = fs.String("sweep", "", "run a parameter sweep key=lo:hi:step (keys: "+strings.Join(experiments.SweepKeys, ", ")+") over the five systems")
		specFile  = fs.String("spec", "", "workload spec JSON driving the experiment trace")
		queue     = fs.String("queue", "", "wait-queue discipline: "+strings.Join(sched.DisciplineNames, ", ")+" (default fcfs)")
		prefixOn  = fs.Bool("prefix-caching", false, "enable content-addressed KVCache prefix sharing (default off; off reproduces the identity-free allocator byte-for-byte)")
		evict     = fs.String("cache-evict", "", "cached-block eviction policy: lru (default), fifo; only meaningful with -prefix-caching")
		tracePath = fs.String("trace", "", "write a Chrome trace-event / Perfetto JSON trace of every simulation to this file (load it at ui.perfetto.dev)")
		cpuProf   = fs.String("cpuprofile", "", "write a Go CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a Go heap profile after the run to this file")
		listExps  = fs.Bool("list-exps", false, "print every experiment name with a one-line description and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err, true}
	}

	if *listExps {
		for _, e := range expList {
			fmt.Fprintf(stdout, "%-10s %s\n", e.name, e.desc)
		}
		return nil
	}

	i := slices.IndexFunc(expList, func(e experiment) bool { return e.name == *exp })
	if i < 0 {
		return usageError{error: fmt.Errorf("unknown -exp %q (valid: %s)", *exp, expNames())}
	}
	selected := expList[i]

	cfg := experiments.Quick()
	switch *scale {
	case "quick":
	case "full":
		cfg = experiments.Full()
	case "clusterb":
		cfg = experiments.ClusterB()
	default:
		return usageError{error: fmt.Errorf("unknown -scale %q", *scale)}
	}
	if *dataset != "" {
		ds, err := workload.DatasetByName(*dataset)
		if err != nil {
			return usageError{error: err}
		}
		cfg.Dataset = ds
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkCounts(*instances, set["instances"], *parallel); err != nil {
		return usageError{error: err}
	}
	if *instances > 0 {
		cfg.Instances = *instances
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if d, err := durationOverride(*duration); err != nil {
		return usageError{error: err}
	} else if d > 0 {
		cfg.Duration = d
	}
	if l, err := loadOverride(*load, set["load"]); err != nil {
		return usageError{error: err}
	} else if l > 0 {
		cfg.LoadMultiplier = l
	}
	cfg.Parallel = *parallel
	cfg.Queue = *queue
	cfg.PrefixCaching = *prefixOn
	cfg.CacheEvict = *evict
	if *exp == "scale" {
		// The scale sweep targets cluster scale by default: 512 instances
		// over an hour-class trace, with bounded metrics. Explicit
		// -instances/-duration still win.
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
		return usageError{error: err}
	}
	if *exp == "slo" && *queue != "" {
		fmt.Fprintln(stderr, "note: -exp slo compares every discipline (fcfs, priority, edf); -queue is ignored there")
	}
	if *exp == "prefix" && (*prefixOn || *evict != "") {
		fmt.Fprintln(stderr, "note: -exp prefix compares every cache policy (off, lru, fifo); -prefix-caching/-cache-evict are ignored there")
	}
	if *specFile != "" {
		// The spec's own seed, duration, and rates govern the trace;
		// -seed still seeds the cluster and -load still scales KV
		// provisioning, but neither reshapes the spec trace.
		for _, name := range []string{"duration", "load", "seed"} {
			if set[name] {
				fmt.Fprintf(stderr, "note: -%s does not affect the -spec trace (the spec's seed/duration/rates govern it)\n", name)
			}
		}
		s, err := spec.Load(*specFile)
		if err != nil {
			return usageError{error: err}
		}
		cfg.WorkloadSpec = s
		switch *exp {
		case "fig16", "table1", "all":
			fmt.Fprintln(stderr, "note: fig16 and table1 build their own workloads and ignore -spec")
		case "disagg":
			fmt.Fprintln(stderr, "note: -exp disagg sweeps load multipliers over the derived burst trace and ignores -spec")
		}
	}
	runSelected := func() error { return runExp(stdout, selected, cfg, *jsonOut) }
	if *sweepFlag != "" {
		key, values, err := experiments.ParseSweep(*sweepFlag)
		if err != nil {
			return usageError{error: err}
		}
		if set["exp"] {
			fmt.Fprintln(stderr, "note: -exp is ignored in -sweep mode (the sweep runs the five systems)")
		}
		runSelected = func() error { return runSweep(stdout, key, values, cfg, *jsonOut) }
	}

	var stopCPU func() error
	if *cpuProf != "" {
		stop, err := runner.StartCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		stopCPU = stop
	}

	runErr := runSelected()

	// Profiles and traces flush even when the run errored: a partial
	// trace of a failing experiment is exactly what one debugs with.
	if stopCPU != nil {
		if err := stopCPU(); err != nil {
			return err
		}
	}
	if *memProf != "" {
		if err := runner.WriteHeapProfile(*memProf); err != nil {
			return err
		}
	}
	if cfg.TraceSink != nil {
		if err := cfg.TraceSink.WriteFile(*tracePath); err != nil {
			return err
		}
	}
	return runErr
}

// durationOverride converts -duration: 0 keeps the experiment's own
// duration; anything else must be a valid trace duration.
func durationOverride(s float64) (sim.Duration, error) {
	if s == 0 {
		return 0, nil
	}
	d, err := workload.DurationSeconds(s)
	if err != nil {
		return 0, fmt.Errorf("-duration: %w", err)
	}
	return d, nil
}

// loadOverride converts -load: unset keeps the experiment's load; a set
// value must be a positive, finite multiplier (an infinite one generated
// arrivals until memory ran out, and a non-positive or NaN one silently
// ran the default load).
func loadOverride(v float64, set bool) (float64, error) {
	if !set {
		return 0, nil
	}
	if !(v > 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("-load must be a positive, finite multiplier, got %v", v)
	}
	return v, nil
}

// checkCounts rejects a negative -instances, an explicit -instances 0
// (both silently ran the default count, and on -exp scale a 0 shrank the
// ladder), and a negative -parallel.
func checkCounts(instances int, instancesSet bool, parallel int) error {
	if instances < 0 || instancesSet && instances == 0 {
		return fmt.Errorf("-instances must be positive, got %d", instances)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be 0 (GOMAXPROCS) or positive, got %d", parallel)
	}
	return nil
}

func runSweep(w io.Writer, key string, values []float64, cfg experiments.Config, jsonOut bool) error {
	res, err := experiments.Sweep(cfg, key, values, nil)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, res)
	}
	experiments.PrintSweep(w, res)
	return nil
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runExp runs one -exp selection ("all" runs every member of expList with
// inAll set) and writes its artifacts: paper-style text, or with jsonOut
// one JSON object keyed by artifact.
func runExp(w io.Writer, e experiment, cfg experiments.Config, jsonOut bool) error {
	selected := []experiment{e}
	if e.yield == nil {
		selected = nil
		for _, m := range expList {
			if m.inAll {
				selected = append(selected, m)
			}
		}
	}
	results := map[string]any{}
	for _, m := range selected {
		arts, err := m.yield(cfg)
		if err != nil {
			return err
		}
		for _, a := range arts {
			if jsonOut {
				results[a.key] = a.value
			} else {
				a.print(w)
			}
		}
	}
	if jsonOut {
		return emitJSON(w, results)
	}
	return nil
}
