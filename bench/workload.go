// Package bench is the repository's end-to-end benchmark of the serving
// simulator. It drives the simulator from outside through its public calls
// (trace generation, cluster.New, Cluster.Serve, runner.Summarize), times
// each call, reads the deterministic work counters from public getters
// afterwards, and attributes Serve's CPU to the simulator's packages from a
// CPU profile. The kbench command (cmd/kbench) runs every pass in a fresh
// child process so the cold costs a CLI user pays on every run land inside
// the measurement.
package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/experiments"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/arrival"
	"kunserve/internal/workload/spec"
)

// params pins one workload's scale. The values live in pinned.json rather
// than being re-derived from the experiments defaults, so a change to those
// defaults cannot silently change what the benchmark measures; the
// equivalence tests check that the pins still equal what experiments derives.
type params struct {
	Name string `json:"name"`
	// Instances is the Qwen-2.5-14B/A800 fleet size (Cluster A hardware).
	Instances int `json:"instances"`
	// DurationS is the trace length; DrainS the serve horizon past the last
	// arrival.
	DurationS float64 `json:"duration_s"`
	DrainS    float64 `json:"drain_s"`
	// RPS is the mean request rate of the whole trace.
	RPS float64 `json:"rps"`
	// KVProvisionBytes caps each instance's KV region.
	KVProvisionBytes int64 `json:"kv_provision_bytes"`
	// Systems are served in this order on every trace.
	Systems []string `json:"systems"`
	// Seeds is the number of traces per pass; trace i uses
	// runner.DeriveSeed(seed, "<name>/<i>").
	Seeds int `json:"seeds"`
	// Golden is the output digest at the default seed.
	Golden string `json:"golden_digest"`
}

// pinnedFile is the on-disk form of pinned.json.
type pinnedFile struct {
	DefaultSeed int64    `json:"default_seed"`
	Workloads   []params `json:"workloads"`
}

//go:embed pinned.json
var pinnedJSON []byte

// defaultSeed is the seed the golden digests are pinned at.
var defaultSeed int64

// workloads lists the benchmark's workloads in run order.
var workloads []params

func init() {
	var f pinnedFile
	if err := json.Unmarshal(pinnedJSON, &f); err != nil {
		panic(fmt.Sprintf("bench: pinned.json: %v", err))
	}
	defaultSeed, workloads = f.DefaultSeed, f.Workloads
	for _, p := range workloads {
		if _, err := p.groups(defaultSeed); err != nil {
			panic(fmt.Sprintf("bench: pinned.json: %v", err))
		}
	}
}

// workloadByName finds a pinned workload.
func workloadByName(name string) (params, error) {
	for _, p := range workloads {
		if p.Name == name {
			return p, nil
		}
	}
	return params{}, fmt.Errorf("bench: unknown workload %q", name)
}

// The workload names.
const (
	fleetDiurnal  = "fleet-diurnal"
	paperBurst    = "paper-burst"
	prefixAgentic = "prefix-agentic"
)

// systems maps the benchmark's system names to the evaluated systems.
var systems = map[string]experiments.System{
	"vllm-dp":   experiments.SysVLLMDP,
	"vllm-pp":   experiments.SysVLLMPP,
	"infercept": experiments.SysInferCept,
	"llumnix":   experiments.SysLlumnix,
	"kunserve":  experiments.SysKunServe,
}

// systemNames lists the system names in the paper's legend order.
var systemNames = []string{"vllm-dp", "vllm-pp", "infercept", "llumnix", "kunserve"}

// cell is one simulation: a policy serving its group's trace on a fresh
// cluster.
type cell struct {
	key       string
	system    string
	newPolicy func() cluster.Policy
	config    cluster.Config
}

// group is one trace and the cells that serve it, one per system.
type group struct {
	gen   func() (*workload.Trace, error)
	drain sim.Duration
	cells []cell
}

// groups expands the workload into its per-seed traces and cells.
func (p params) groups(seed int64) ([]group, error) {
	if p.Seeds < 1 || p.Instances < 1 || p.DurationS <= 0 || p.RPS <= 0 || len(p.Systems) == 0 {
		return nil, fmt.Errorf("workload %q: bad parameters %+v", p.Name, p)
	}
	var out []group
	for i := 0; i < p.Seeds; i++ {
		s := runner.DeriveSeed(seed, fmt.Sprintf("%s/%d", p.Name, i))
		gen, err := p.trace(s)
		if err != nil {
			return nil, err
		}
		g := group{gen: gen, drain: sim.DurationFromSeconds(p.DrainS)}
		for _, name := range p.Systems {
			c, err := newCell(fmt.Sprintf("%s/%d/%s", p.Name, i, name), name, p.clusterConfig(s))
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", p.Name, err)
			}
			g.cells = append(g.cells, c)
		}
		out = append(out, g)
	}
	return out, nil
}

// newCell is one system serving on the cluster config.
func newCell(key, system string, cc cluster.Config) (cell, error) {
	sys, ok := systems[system]
	if !ok {
		return cell{}, fmt.Errorf("unknown system %q", system)
	}
	return cell{
		key:       key,
		system:    system,
		newPolicy: func() cluster.Policy { return experiments.NewPolicy(sys) },
		config:    cc,
	}, nil
}

// trace returns the workload's trace generator for one seed.
func (p params) trace(seed int64) (func() (*workload.Trace, error), error) {
	dur := sim.DurationFromSeconds(p.DurationS)
	ds := workload.BurstGPTDataset()
	switch p.Name {
	case fleetDiurnal:
		// The -exp scale trace: a sine-diurnal rate with four cycles per
		// trace.
		return func() (*workload.Trace, error) {
			proc, err := arrival.NewDiurnal(p.RPS, 0.5, dur/4, 0)
			if err != nil {
				return nil, err
			}
			return workload.GenerateProcess(seed, dur, proc, ds), nil
		}, nil
	case paperBurst:
		return func() (*workload.Trace, error) {
			return workload.Generate(seed, dur, workload.ScaledBurstSchedule(p.RPS, dur), ds), nil
		}, nil
	case prefixAgentic:
		return agenticSpec(seed, p.DurationS, p.RPS).Compile, nil
	}
	return nil, fmt.Errorf("bench: no trace for workload %q", p.Name)
}

// agenticSpec is the prefix experiment's built-in agentic mix at share 0.5:
// 60% of traffic reopens a 500-token system prompt, which is deliberately
// not a multiple of the 64-token block so the boundary block is shared
// partially filled and divergence copies it on write.
func agenticSpec(seed int64, durationS, rps float64) *spec.Spec {
	return &spec.Spec{
		Name:      prefixAgentic,
		Seed:      seed,
		DurationS: durationS,
		TotalRPS:  rps,
		Clients: []spec.Client{
			{
				Name:         "agent",
				RateFraction: 0.6,
				SharedPrefix: 500,
				Arrival:      spec.Arrival{Process: "burst"},
				Input:        &spec.Length{Mean: 1500, Sigma: 0.5, Min: 1100, Max: 8192},
				Output:       &spec.Length{Mean: 250, Sigma: 0.8, Min: 4, Max: 2048},
			},
			{
				Name:         "adhoc",
				RateFraction: 0.4,
				Arrival:      spec.Arrival{Process: "burst"},
				Dataset:      "burstgpt",
			},
		},
	}
}

// clusterConfig is the cluster every cell of the workload serves on. The
// policy is filled per cell.
func (p params) clusterConfig(seed int64) cluster.Config {
	cc := cluster.Config{
		Seed:             seed,
		Model:            model.Qwen25_14B(),
		GPU:              gpu.A800(),
		Instances:        p.Instances,
		NetBandwidth:     200e9 / 8,
		KVProvisionBytes: p.KVProvisionBytes,
	}
	switch p.Name {
	case fleetDiurnal:
		// Streaming mode, as -exp scale runs it.
		cc.MetricsReservoir = runner.DefaultReservoir
		cc.LazyArrivals = true
	case prefixAgentic:
		cc.PrefixCaching = true
		cc.CacheEvict = "lru"
	}
	return cc
}
