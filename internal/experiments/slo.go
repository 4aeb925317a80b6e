package experiments

import (
	"fmt"
	"io"

	"kunserve/internal/cluster"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload/spec"
)

// SLOSystems are the systems the SLO-attainment experiment compares: the
// primary baseline and the paper's system.
var SLOSystems = []System{SysVLLMDP, SysKunServe}

// SLODisciplines are the queue disciplines the experiment sweeps. FCFS is
// the pre-sched default; priority and EDF differentiate by SLO class.
var SLODisciplines = []string{"fcfs", "priority", "edf"}

// SLORun is one (discipline × system) cell of the experiment.
type SLORun struct {
	Discipline string
	System     System
	runner.Summary
}

// SLOResult is the multi-tenant SLO-attainment experiment: the same
// two-class trace served under every (discipline × system) combination,
// with per-class latency, attainment, and goodput in each run's PerClass.
type SLOResult struct {
	// Classes lists the SLO classes of the workload, sorted.
	Classes     []string
	Systems     []System
	Disciplines []string
	// Runs is discipline-major, system-minor.
	Runs []SLORun
}

// Find returns the run for a (discipline, system) pair, nil if absent.
func (r *SLOResult) Find(disc string, sys System) *SLORun {
	for i := range r.Runs {
		if r.Runs[i].Discipline == disc && r.Runs[i].System == sys {
			return &r.Runs[i]
		}
	}
	return nil
}

// TwoClassSpec builds the experiment's default workload: an interactive
// client (tight TTFT target, high priority) and a batch client (loose
// target) sharing the §5.1 burst overload, so the disciplines' treatment
// of the two classes is measured under exactly the memory-throttling
// regime the paper evaluates.
func TwoClassSpec(seed int64, duration sim.Duration, totalRPS float64) *spec.Spec {
	return &spec.Spec{
		Name:      "slo-two-class",
		Seed:      seed,
		DurationS: duration.Seconds(),
		TotalRPS:  totalRPS,
		Clients: []spec.Client{
			{
				Name:         "interactive",
				RateFraction: 0.65,
				SLOClass:     "interactive",
				Arrival:      spec.Arrival{Process: "burst"},
				Dataset:      "burstgpt",
			},
			{
				Name:         "batch",
				RateFraction: 0.35,
				SLOClass:     "batch",
				Arrival:      spec.Arrival{Process: "burst"},
				Dataset:      "burstgpt",
			},
		},
		SLOClasses: map[string]spec.SLOClass{
			"interactive": {TTFTS: 1.0, TBTMS: 200, Priority: 10},
			"batch":       {TTFTS: 8.0},
		},
	}
}

// ExperimentSLO serves one class-tagged trace — the config's workload spec
// if it declares one, else the built-in two-class mix — under every
// (discipline × system) combination as one concurrent run matrix. Every
// cell dispatches with the default least-loaded router.
func ExperimentSLO(cfg Config) (*SLOResult, error) {
	cfg = cfg.withDefaults()
	if cfg.WorkloadSpec == nil {
		cfg.WorkloadSpec = TwoClassSpec(cfg.Seed, cfg.Duration, cfg.BaseRPS)
	}
	tr, err := cfg.BuildTrace()
	if err != nil {
		return nil, err
	}
	targets := cfg.WorkloadSpec.ClassTargets()
	if len(targets) == 0 {
		// Without targets every discipline degenerates to arrival order
		// and the attainment tables come back empty — refuse loudly
		// rather than print a meaningless six-way comparison.
		return nil, fmt.Errorf(
			"slo experiment: workload spec %q declares no slo_classes (per-class TTFT/TBT targets drive the disciplines and the attainment metrics)",
			cfg.WorkloadSpec.Name)
	}
	res := &SLOResult{
		Classes:     targets.Names(),
		Systems:     SLOSystems,
		Disciplines: SLODisciplines,
	}
	set := runner.NewSet(cfg.Parallel)
	set.Obs = cfg.TraceSink
	for _, d := range SLODisciplines {
		dcfg := cfg
		dcfg.Queue = d
		for _, s := range SLOSystems {
			sys := s
			set.Add(runner.Cell{
				Key:       fmt.Sprintf("queue=%s/%s", d, sys),
				Cluster:   dcfg.clusterConfig(tr),
				NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
				Trace:     tr,
				Horizon:   tr.Duration().Add(cfg.HorizonSlack),
			})
			res.Runs = append(res.Runs, SLORun{Discipline: d, System: sys})
		}
	}
	results, err := set.Execute()
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		res.Runs[i].Summary = r.Summary
	}
	return res, nil
}

// PrintExperimentSLO renders per-run overall latency plus the per-class
// attainment table.
func PrintExperimentSLO(w io.Writer, r *SLOResult) {
	printHeader(w, "SLO attainment: per-class scheduling under memory throttling")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-8s %-11s  TTFT P99 %.3fs  TPOT P99 %.1fms  finished %d\n",
			run.Discipline, run.System, run.TTFTP99, run.TPOTP99*1000, run.Finished)
		for _, cs := range run.PerClass {
			fmt.Fprintf(w, "    %-12s n=%-5d TTFT P50/P99 %.3f/%.3fs  target %.1fs  attain %5.1f%%  goodput %.2f req/s\n",
				cs.Class, cs.Finished, cs.TTFTP50, cs.TTFTP99,
				cs.TTFTTarget, cs.Attainment*100, cs.Goodput)
		}
	}
}
