package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"kunserve/internal/cluster"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// SweepKeys lists the parameters a sweep can vary:
//
//   - load      — LoadMultiplier on the derived base RPS
//   - rps       — absolute BaseRPS
//   - seed      — the trace/cluster seed (confidence bands across seeds)
//   - rep       — replicate index; each rep derives an independent seed
//     from the config seed via runner.DeriveSeed
//   - instances — serving-instance count
//   - duration  — trace length in seconds
var SweepKeys = []string{"load", "rps", "seed", "rep", "instances", "duration"}

// maxSweepPoints bounds a sweep grid; every point runs the five systems,
// so a larger grid is a typo, not an experiment.
const maxSweepPoints = 1 << 16

// ParseSweep parses a "key=lo:hi:step" directive (inclusive bounds, step > 0)
// into the swept key and its value grid, e.g. "load=0.5:2.0:0.25" or
// "seed=1:32:1". On success the grid holds at least one value, every value
// is finite, positive and within [lo, hi], values strictly ascend, and the
// integer keys (seed, rep, instances) get integer values.
func ParseSweep(s string) (key string, values []float64, err error) {
	name, rangeSpec, ok := strings.Cut(s, "=")
	if !ok {
		return "", nil, fmt.Errorf("sweep: %q is not key=lo:hi:step", s)
	}
	valid := false
	for _, k := range SweepKeys {
		if name == k {
			valid = true
			break
		}
	}
	if !valid {
		return "", nil, fmt.Errorf("sweep: unknown key %q (valid: %s)",
			name, strings.Join(SweepKeys, ", "))
	}
	parts := strings.Split(rangeSpec, ":")
	if len(parts) != 3 {
		return "", nil, fmt.Errorf("sweep: range %q is not lo:hi:step", rangeSpec)
	}
	var bounds [3]float64
	for i, p := range parts {
		bounds[i], err = strconv.ParseFloat(p, 64)
		if err != nil || math.IsNaN(bounds[i]) || math.IsInf(bounds[i], 0) {
			return "", nil, fmt.Errorf("sweep: bad number %q in %q", p, s)
		}
	}
	lo, hi, step := bounds[0], bounds[1], bounds[2]
	if step <= 0 {
		return "", nil, fmt.Errorf("sweep: step %g must be > 0", step)
	}
	if hi < lo {
		return "", nil, fmt.Errorf("sweep: hi %g < lo %g", hi, lo)
	}
	// Zero is "use the default" throughout Config, so a 0-valued grid
	// point would silently run the default-config cell under a 0 label.
	if lo <= 0 {
		return "", nil, fmt.Errorf("sweep: %s values must be > 0, got lo %g", name, lo)
	}
	// Integer keys truncate their values, so a fractional grid would run
	// duplicate cells and report misleadingly narrow bands.
	integer := name == "seed" || name == "rep" || name == "instances"
	if integer {
		for _, v := range bounds {
			if v != math.Trunc(v) {
				return "", nil, fmt.Errorf("sweep: %s takes integer values, got %q", name, rangeSpec)
			}
		}
	}
	span := (hi-lo)/step + 1e-9
	if !(span < maxSweepPoints) {
		return "", nil, fmt.Errorf("sweep: %q has more than %d points", s, maxSweepPoints)
	}
	n := int(math.Floor(span)) + 1
	for i := 0; i < n; i++ {
		v := lo + float64(i)*step
		// Round away float accumulation (0.8 + 2*0.2 = 1.2000...02) so
		// values print and key cleanly, unless that leaves [lo, hi].
		if r := math.Round(v*1e9) / 1e9; !integer && r >= lo && r <= hi {
			v = r
		}
		v = math.Min(v, hi)
		if i > 0 && v <= values[i-1] {
			return "", nil, fmt.Errorf("sweep: step %g is too fine for %q", step, s)
		}
		values = append(values, v)
	}
	return name, values, nil
}

// applySweep returns cfg with the swept parameter set to v. It operates on
// the raw (pre-default) config so derived quantities (BaseRPS from load, KV
// provisioning from the trace) re-derive per point.
func applySweep(cfg Config, key string, v float64) Config {
	switch key {
	case "load":
		cfg.LoadMultiplier = v
		cfg.BaseRPS = 0 // re-derive
	case "rps":
		cfg.BaseRPS = v
	case "seed":
		cfg.Seed = int64(v)
	case "rep":
		cfg.Seed = runner.DeriveSeed(cfg.withDefaults().Seed, fmt.Sprintf("rep=%d", int(v)))
	case "instances":
		cfg.Instances = int(v)
	case "duration":
		cfg.Duration = sim.DurationFromSeconds(v)
	}
	return cfg
}

// SweepCell is one (value × system) point of a sweep.
type SweepCell struct {
	Param  string
	Value  float64
	System System
	runner.Summary
}

// SweepResult holds the whole grid, cells ordered value-major then system.
type SweepResult struct {
	Param   string
	Values  []float64
	Systems []System
	Cells   []SweepCell
}

// Sweep runs every listed system at every value of the swept parameter as
// one concurrent run matrix (nil systems = the five §5.1 systems). Each
// value gets its own trace; systems within a value share it. Like the
// figures, the grid's results do not depend on cfg.Parallel.
func Sweep(cfg Config, param string, values []float64, systems []System) (*SweepResult, error) {
	// A workload spec carries its own seed, rates, and duration, so
	// sweeping those knobs would run N byte-identical simulations and
	// print a flat "band" that measured nothing. Only the cluster shape
	// remains sweepable.
	if cfg.WorkloadSpec != nil && param != "instances" {
		return nil, fmt.Errorf(
			"sweep: %s does not affect a -spec trace (the spec's seed/rates/duration govern it); only instances can be swept with a workload spec",
			param)
	}
	if len(systems) == 0 {
		systems = AllSystems()
	}
	set := runner.NewSet(cfg.withDefaults().Parallel)
	set.Obs = cfg.TraceSink
	type cellMeta struct {
		value float64
		sys   System
	}
	var metas []cellMeta
	var specTrace *workload.Trace
	for _, v := range values {
		pc := applySweep(cfg, param, v)
		pcd := pc.withDefaults()
		var tr *workload.Trace
		var err error
		if cfg.WorkloadSpec != nil {
			// A spec trace is value-independent (only instances is
			// sweepable then, and it feeds the cluster, not the
			// trace): compile once and share it across all cells.
			if specTrace == nil {
				if specTrace, err = pc.BuildTrace(); err != nil {
					return nil, fmt.Errorf("sweep %s=%g: %w", param, v, err)
				}
			}
			tr = specTrace
		} else if tr, err = pc.BuildTrace(); err != nil {
			return nil, fmt.Errorf("sweep %s=%g: %w", param, v, err)
		}
		for _, s := range systems {
			if s == SysVLLMPP && pcd.Instances%2 != 0 {
				continue
			}
			sys := s
			set.Add(runner.Cell{
				Key:       fmt.Sprintf("%s=%g/%s", param, v, sys),
				Cluster:   pcd.clusterConfig(tr),
				NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
				Trace:     tr,
				Horizon:   tr.Duration().Add(pcd.HorizonSlack),
			})
			metas = append(metas, cellMeta{v, sys})
		}
	}
	results, err := set.Execute()
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Param: param, Values: values, Systems: systems}
	for i, r := range results {
		res.Cells = append(res.Cells, SweepCell{
			Param:   param,
			Value:   metas[i].value,
			System:  metas[i].sys,
			Summary: r.Summary,
		})
	}
	return res, nil
}

// Band is one system's spread across the sweep values.
type Band struct {
	System   System
	MeanP99  float64 // mean P99 TTFT (s)
	StdP99   float64 // sample standard deviation
	WorstP99 float64
	N        int
}

// Bands aggregates per-system mean/stddev/worst of P99 TTFT across the sweep
// values — confidence bands for seed/rep sweeps — in the sweep's system
// order.
func (r *SweepResult) Bands() []Band {
	byn := map[System]*Band{}
	for _, c := range r.Cells {
		b := byn[c.System]
		if b == nil {
			b = &Band{System: c.System}
			byn[c.System] = b
		}
		b.MeanP99 += c.TTFTP99
		if c.TTFTP99 > b.WorstP99 {
			b.WorstP99 = c.TTFTP99
		}
		b.N++
	}
	for _, b := range byn {
		if b.N > 0 {
			b.MeanP99 /= float64(b.N)
		}
	}
	for _, c := range r.Cells {
		b := byn[c.System]
		d := c.TTFTP99 - b.MeanP99
		b.StdP99 += d * d
	}
	var out []Band
	for _, s := range r.Systems {
		b := byn[s]
		if b == nil {
			continue
		}
		if b.N > 1 {
			b.StdP99 = math.Sqrt(b.StdP99 / float64(b.N-1))
		} else {
			b.StdP99 = 0
		}
		out = append(out, *b)
	}
	return out
}

// PrintSweep renders the grid plus the per-system bands.
func PrintSweep(w io.Writer, r *SweepResult) {
	printHeader(w, fmt.Sprintf("Sweep %s: %d points x %d systems",
		r.Param, len(r.Values), len(r.Systems)))
	fmt.Fprintf(w, "%-12s %-11s %9s %9s %9s %9s %7s %6s %5s\n",
		r.Param, "System", "TTFT50(s)", "TTFT99(s)", "TPOT50ms", "TPOT99ms",
		"Ktok/s", "Reqs", "Lost")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-12s %-11s %9.3f %9.3f %9.1f %9.1f %7.1f %6d %5d\n",
			strconv.FormatFloat(c.Value, 'g', -1, 64), c.System,
			c.TTFTP50, c.TTFTP99, c.TPOTP50*1000, c.TPOTP99*1000,
			c.Throughput/1000, c.Finished, c.Unserved)
	}
	bands := r.Bands()
	sort.SliceStable(bands, func(i, j int) bool { return bands[i].MeanP99 < bands[j].MeanP99 })
	fmt.Fprintln(w, "P99 TTFT across the sweep (mean +/- std, worst):")
	for _, b := range bands {
		fmt.Fprintf(w, "  %-11s %.3fs +/- %.3fs (worst %.3fs, n=%d)\n",
			b.System, b.MeanP99, b.StdP99, b.WorstP99, b.N)
	}
}
