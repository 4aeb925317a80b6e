package experiments

import (
	"fmt"
	"io"

	"kunserve/internal/costmodel"
	"kunserve/internal/gpu"
)

// Figure15Point compares cost-model estimates against ground truth for one
// length.
type Figure15Point struct {
	Length      int
	ActualMs    float64
	OursMs      float64
	BlindMs     float64
	OursDevPct  float64
	BlindDevPct float64
}

// Figure15Result holds both panels: prefill without prefix (prompt-length
// sweep) and with prefix (prefix-length sweep at a fixed 512-token chunk).
type Figure15Result struct {
	Model       string
	NoPrefix    []Figure15Point
	WithPrefix  []Figure15Point
	OursMaxDev  float64
	BlindMaxDev float64
}

// Figure15 fits both cost models offline and evaluates them against the
// ground-truth timer (§5.4).
func Figure15(cfg Config) (*Figure15Result, error) {
	cfg = cfg.withDefaults()
	timer := gpu.NewTimer(cfg.GPU, cfg.Model, cfg.Model.GPUsPerInstance)
	samples := costmodel.ProfileGrid(timer)

	ours, err := costmodel.Fit(samples)
	if err != nil {
		return nil, err
	}
	blind, err := costmodel.FitTokenCount(samples)
	if err != nil {
		return nil, err
	}

	res := &Figure15Result{Model: cfg.Model.Name}
	lengths := []int{512, 1024, 2048, 4096, 6144, 8192}
	for _, n := range lengths {
		actual := timer.PrefillTime(0, n).Seconds()
		p := Figure15Point{
			Length:   n,
			ActualMs: actual * 1000,
			OursMs:   ours.ChunkSeconds(0, n) * 1000,
			BlindMs:  blind.ChunkSeconds(0, n) * 1000,
		}
		p.OursDevPct = dev(p.OursMs, p.ActualMs)
		p.BlindDevPct = dev(p.BlindMs, p.ActualMs)
		res.NoPrefix = append(res.NoPrefix, p)
	}
	const chunk = 512
	for _, prefix := range lengths {
		actual := timer.PrefillTime(prefix, chunk).Seconds()
		p := Figure15Point{
			Length:   prefix,
			ActualMs: actual * 1000,
			OursMs:   ours.ChunkSeconds(prefix, chunk) * 1000,
			BlindMs:  blind.ChunkSeconds(prefix, chunk) * 1000,
		}
		p.OursDevPct = dev(p.OursMs, p.ActualMs)
		p.BlindDevPct = dev(p.BlindMs, p.ActualMs)
		res.WithPrefix = append(res.WithPrefix, p)
	}
	for _, p := range append(append([]Figure15Point{}, res.NoPrefix...), res.WithPrefix...) {
		if p.OursDevPct > res.OursMaxDev {
			res.OursMaxDev = p.OursDevPct
		}
		if p.BlindDevPct > res.BlindMaxDev {
			res.BlindMaxDev = p.BlindDevPct
		}
	}
	return res, nil
}

func dev(est, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	d := (est - actual) / actual * 100
	if d < 0 {
		d = -d
	}
	return d
}

// PrintFigure15 renders both panels.
func PrintFigure15(w io.Writer, r *Figure15Result) {
	printHeader(w, "Figure 15: cost model accuracy — "+r.Model)
	for _, panel := range []struct {
		title  string
		points []Figure15Point
		xlabel string
	}{
		{"Prefill w/o prefix", r.NoPrefix, "prompt"},
		{"Prefill w/ prefix (512-token chunk)", r.WithPrefix, "prefix"},
	} {
		fmt.Fprintf(w, "%s:\n%8s %10s %10s %10s %9s %9s\n", panel.title,
			panel.xlabel, "actual(ms)", "ours(ms)", "blind(ms)", "ours dev", "blind dev")
		for _, p := range panel.points {
			fmt.Fprintf(w, "%8d %10.1f %10.1f %10.1f %8.1f%% %8.1f%%\n",
				p.Length, p.ActualMs, p.OursMs, p.BlindMs, p.OursDevPct, p.BlindDevPct)
		}
	}
	fmt.Fprintf(w, "max deviation: ours %.1f%%, attention-blind %.1f%%\n",
		r.OursMaxDev, r.BlindMaxDev)
}
