package bench

import (
	"slices"
	"sort"
	"strings"
)

// metric describes one reported metric.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks a deterministic count: it must repeat exactly across
	// passes and runs of the same code.
	Exact bool
	// Least reports the least pass value instead of the median.
	Least bool
}

// endToEnd are the metrics a user of the simulator sees: host time and host
// memory for one pass. Their bounds mirror BENCHMARK.json.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_tok_per_s", Unit: "tok/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Peak RSS is bimodal: whether a collection lands just before the live
	// heap peaks decides between modes ~12% apart in fleet-diurnal passes
	// of identical work, so a median over a few passes flips between them.
	// The least peak over a run's passes is the footprint the work itself
	// needs.
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15, Least: true},
}

// layers are the simulator's packages the traced pass attributes Serve CPU
// to, plus the Go runtime and the rest of the standard library.
var layers = []string{
	"sim", "workload", "runner", "cluster", "cluster.engine", "sched",
	"kvcache", "request", "batching", "gpu", "pipeline", "instance", "memory",
	"costmodel", "core", "core.planner", "core.lookahead", "baselines",
	"network", "metrics", "runtime", "std",
}

// perLayerMetrics are the single-layer metrics: phase times of the public calls,
// exact work counts, Go runtime deltas, and the traced pass's CPU split.
var perLayerMetrics = perLayer()

func perLayer() []metric {
	out := []metric{
		{Name: "workload.gen_s", Unit: "s", Better: "lower"},
		{Name: "cluster.new_s", Unit: "s", Better: "lower"},
		{Name: "cluster.serve_s", Unit: "s", Better: "lower"},
	}
	for _, s := range systemNames {
		out = append(out, metric{Name: "cluster.serve_s." + s, Unit: "s", Better: "lower"})
	}
	counts := []struct {
		name, unit, better string
	}{
		{"sim.events", "count", "lower"},
		{"sim.events_per_req", "count", "lower"},
		{"cluster.requests", "count", "higher"},
		{"cluster.monitor_skipped", "count", "higher"},
		{"cluster.monitor_skip_ratio", "ratio", "higher"},
		{"cluster.engine.rounds", "count", "lower"},
		{"metrics.finished", "count", "higher"},
		{"metrics.unserved", "count", "lower"},
		{"metrics.prefill_tokens", "tok", "lower"},
		{"metrics.gen_tokens", "tok", "higher"},
		{"kvcache.lookups", "count", "higher"},
		{"kvcache.hits", "count", "higher"},
		{"kvcache.hit_rate", "ratio", "higher"},
		{"kvcache.hit_tokens", "tok", "higher"},
		{"kvcache.cow_copies", "count", "lower"},
		{"kvcache.evictions", "count", "lower"},
		{"kvcache.shrink_evictions", "count", "lower"},
		{"kvcache.reconfig_evicted", "count", "lower"},
		{"core.drops", "count", "lower"},
		{"core.restores", "count", "lower"},
	}
	out = append(out,
		metric{Name: "runner.summarize_s", Unit: "s", Better: "lower"},
		metric{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	)
	for _, c := range counts {
		out = append(out, metric{Name: c.name, Unit: c.unit, Better: c.better, Exact: true})
	}
	out = append(out,
		metric{Name: "runtime.alloc_mb", Unit: "MiB", Better: "lower"},
		metric{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
		metric{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metric{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	)
	for _, l := range layers {
		out = append(out,
			metric{Name: l + ".self_s", Unit: "s", Better: "lower"},
			metric{Name: l + ".self_share", Unit: "ratio", Better: "lower"},
		)
	}
	return append(out,
		metric{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"},
		metric{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
		metric{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
		metric{Name: "host.wall_raw_s", Unit: "s", Better: "lower"},
	)
}

// allMetrics is every reported metric, end-to-end first.
var allMetrics = append(append([]metric(nil), endToEnd...), perLayerMetrics...)

// inSeconds marks the metrics measured in seconds.
var inSeconds = func() map[string]bool {
	out := map[string]bool{}
	for _, m := range allMetrics {
		out[m.Name] = m.Unit == "s"
	}
	return out
}()

// stat is one metric over a set of passes.
type stat struct {
	Unit string `json:"unit"`
	// Value is the reported value: the median, or the least value for a
	// metric marked Least.
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(m metric, values []float64) stat {
	s := stat{Unit: m.Unit, N: len(values), Values: values}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	s.Value = s.Median
	if m.Least && len(values) > 0 {
		s.Value = slices.Min(values)
	}
	return s
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles default).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// workloadReport aggregates one workload's passes.
type workloadReport struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Passes and TracedPasses count the child processes run.
	Passes       int `json:"passes"`
	TracedPasses int `json:"traced_passes"`
	// Attempted and Failed count cells over every pass.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the passes' output digest; DigestsAgree whether every pass
	// produced it, CountsRepeat whether every exact count repeated, and
	// DigestMatch whether it equals the golden (nil at an unpinned seed).
	Digest       string          `json:"output_digest"`
	DigestsAgree bool            `json:"digests_agree"`
	CountsRepeat bool            `json:"counts_repeat"`
	DigestMatch  *bool           `json:"digest_match,omitempty"`
	Correct      bool            `json:"correct"`
	Metrics      map[string]stat `json:"metrics"`
}

// aggregate summarizes a workload's untraced and traced passes. End-to-end
// numbers and phase times come from untraced passes; the CPU split from
// traced ones.
func aggregate(p params, seed int64, plain, traced []passResult) workloadReport {
	r := workloadReport{
		Workload: p.Name, Seed: seed,
		Passes: len(plain), TracedPasses: len(traced),
		DigestsAgree: true, CountsRepeat: true,
		Metrics: map[string]stat{},
	}
	all := append(append([]passResult(nil), plain...), traced...)
	seen := map[string]bool{}
	for i, ps := range all {
		r.Attempted += ps.Cells
		r.Failed += len(ps.Failures)
		for _, f := range ps.Failures {
			if !seen[f] {
				seen[f] = true
				r.Failures = append(r.Failures, f)
			}
		}
		if i == 0 {
			r.Digest = ps.Digest
		} else if ps.Digest != r.Digest {
			r.DigestsAgree = false
		}
		for _, m := range perLayerMetrics {
			if m.Exact && ps.Metrics[m.Name] != all[0].Metrics[m.Name] {
				r.CountsRepeat = false
			}
		}
	}
	if seed == defaultSeed && p.Golden != "" {
		match := r.Digest == p.Golden
		r.DigestMatch = &match
	}
	r.Correct = r.Failed == 0 && len(all) > 0 && r.DigestsAgree && r.CountsRepeat &&
		(r.DigestMatch == nil || *r.DigestMatch)

	timing := plain
	if len(timing) == 0 {
		timing = traced
	}
	values := func(passes []passResult, name string) []float64 {
		out := make([]float64, len(passes))
		for i, ps := range passes {
			out[i] = ps.Metrics[name]
		}
		return out
	}
	// The CPU split: each traced pass's layer seconds and their shares of
	// all the CPU its Serve profiles saw.
	cpu := map[string][]float64{}
	for _, ps := range traced {
		total, named := 0.0, 0.0
		for name, v := range ps.Metrics {
			if strings.HasSuffix(name, ".self_s") {
				total += v
			}
		}
		for _, l := range layers {
			v := ps.Metrics[l+".self_s"]
			named += v
			cpu[l+".self_s"] = append(cpu[l+".self_s"], v)
			cpu[l+".self_share"] = append(cpu[l+".self_share"], ratio(v, total))
		}
		cpu["trace.attributed_share"] = append(cpu["trace.attributed_share"], ratio(named, total))
	}
	for _, m := range allMetrics {
		if v, ok := cpu[m.Name]; ok {
			r.Metrics[m.Name] = newStat(m, v)
		} else {
			r.Metrics[m.Name] = newStat(m, values(timing, m.Name))
		}
	}
	overhead := 0.0
	if len(plain) > 0 && len(traced) > 0 {
		_, tw, _ := quartiles(values(traced, "wall_s"))
		overhead = ratio(tw, r.Metrics["wall_s"].Median) - 1
	}
	r.Metrics["trace.overhead"] = newStat(metric{Unit: "ratio"}, []float64{overhead})
	return r
}
