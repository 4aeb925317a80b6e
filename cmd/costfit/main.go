// Command costfit runs the offline cost-model profiling and fitting of
// §4.3: it profiles the ground-truth kernel timer over a prefill grid and
// batched samples, fits the Eq. 1 hyperparameters by least squares, and
// reports the fit alongside the attention-blind baseline (Figure 15).
//
// Usage:
//
//	costfit -model Qwen-2.5-14B -gpu a800
package main

import (
	"flag"
	"fmt"
	"os"

	"kunserve/internal/costmodel"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
)

func main() {
	var (
		modelName = flag.String("model", "Qwen-2.5-14B", "a Table 1 model name")
		gpuName   = flag.String("gpu", "a800", "a800 or h800")
	)
	flag.Parse()

	cfg := model.ByName(*modelName)
	if cfg == nil {
		fmt.Fprintf(os.Stderr, "unknown model %q; Table 1 models:\n", *modelName)
		for _, m := range model.Table1() {
			fmt.Fprintf(os.Stderr, "  %s\n", m.Name)
		}
		os.Exit(2)
	}
	var spec *gpu.Spec
	switch *gpuName {
	case "a800":
		spec = gpu.A800()
	case "h800":
		spec = gpu.H800()
	default:
		fmt.Fprintf(os.Stderr, "unknown gpu %q (a800 or h800)\n", *gpuName)
		os.Exit(2)
	}

	timer := gpu.NewTimer(spec, cfg, cfg.GPUsPerInstance)
	samples := costmodel.ProfileGrid(timer)

	ours, err := costmodel.Fit(samples)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	blind, err := costmodel.FitTokenCount(samples)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("offline profile: %d samples on %s x %s (TP=%d)\n",
		len(samples), cfg.Name, spec.Name, cfg.GPUsPerInstance)
	fmt.Printf("Eq.1 fit:  alpha=%.3e  beta=%.3e  gamma=%.3e  lambda=%.3e\n",
		ours.Alpha, ours.Beta, ours.Gamma, ours.Lambda)
	fmt.Printf("blind fit: beta=%.3e  gamma=%.3e\n", blind.Beta, blind.Gamma)
	fmt.Printf("mean deviation: ours %.2f%%  blind %.2f%%\n",
		costmodel.MeanDeviation(ours, samples)*100,
		costmodel.MeanDeviation(blind, samples)*100)
	fmt.Printf("max deviation:  ours %.2f%%  blind %.2f%%\n",
		costmodel.MaxDeviation(ours, samples)*100,
		costmodel.MaxDeviation(blind, samples)*100)

	fmt.Printf("\n%8s %8s %12s %12s %12s\n", "prefix", "chunk", "actual(ms)", "ours(ms)", "blind(ms)")
	for _, p := range []int{0, 4096} {
		for _, c := range []int{512, 2048, 8192} {
			actual := timer.PrefillTime(p, c).Seconds() * 1000
			fmt.Printf("%8d %8d %12.1f %12.1f %12.1f\n", p, c, actual,
				ours.ChunkSeconds(p, c)*1000, blind.ChunkSeconds(p, c)*1000)
		}
	}
}
