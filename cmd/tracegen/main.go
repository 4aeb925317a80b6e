// Command tracegen generates and rescales request traces (§5.1
// methodology): BurstGPT-patterned arrivals with dataset-specific length
// distributions, optionally upscaled TraceUpscaler-style, written as CSV.
//
// Usage:
//
//	tracegen -dataset sharegpt -duration 128 -rps 10 -schedule burst \
//	    -upscale 2.5 -seed 42 -o trace.csv
//	tracegen -arrival gamma -cv 3.5 -rps 10 -duration 300 -o bursty.csv
//	tracegen -spec examples/specs/two_client.json -o mix.csv
//
// Three mutually layered modes:
//
//   - -schedule burst|longrun|steady (default): the paper's
//     piecewise-constant Poisson schedules.
//   - -arrival poisson|gamma|weibull|diurnal|mmpp: a constant-mean-rate
//     pluggable arrival process; -cv sets the gamma coefficient of
//     variation, -shape the weibull shape, -amplitude/-period the diurnal
//     swing and cycle. Overrides -schedule.
//   - -spec file.json: a declarative multi-client workload spec (overrides
//     everything else). The JSON spec carries name, seed, duration_s,
//     total_rps, and a clients array; each client has a rate_fraction, an
//     arrival object ({"process": "gamma", "cv": 3.5}, etc.), a dataset
//     name or explicit input/output log-normal length distributions, an
//     optional slo_class tag, or a trace_file to replay a recorded CSV
//     (optionally upscaled). See internal/workload/spec and
//     examples/specs/ for the full reference.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/arrival"
	"kunserve/internal/workload/spec"
)

func main() {
	var (
		dataset   = flag.String("dataset", "burstgpt", "burstgpt, sharegpt or longbench")
		duration  = flag.Float64("duration", 128, "trace duration in seconds")
		rps       = flag.Float64("rps", 10, "base request rate")
		schedule  = flag.String("schedule", "burst", "burst, longrun or steady")
		arrivalF  = flag.String("arrival", "", "arrival process: poisson, gamma, weibull, diurnal or mmpp (overrides -schedule)")
		cv        = flag.Float64("cv", 1, "gamma inter-arrival coefficient of variation")
		shape     = flag.Float64("shape", 1, "weibull shape (<1 bursty, >1 regular)")
		amplitude = flag.Float64("amplitude", 0.5, "diurnal relative swing in [0,1]")
		period    = flag.Float64("period", 0, "diurnal cycle length in seconds (default: duration)")
		specFile  = flag.String("spec", "", "workload spec JSON (overrides all generation flags)")
		upscale   = flag.Float64("upscale", 1, "TraceUpscaler-style rate multiplier")
		seed      = flag.Int64("seed", 42, "RNG seed")
		out       = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	if *specFile != "" {
		// The spec governs generation end to end (its own seed, rates,
		// lengths; per-client upscale lives inside the spec), so every
		// other generation flag is inert — say so instead of silently
		// ignoring it.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "spec", "o":
			default:
				fmt.Fprintf(os.Stderr, "note: -%s does not affect the -spec trace (the spec governs generation; per-client upscale lives in the spec)\n", f.Name)
			}
		})
	}

	if *specFile == "" {
		if err := checkUpscale(*upscale); err != nil {
			fatal(err)
		}
	}
	tr, err := buildTrace(*specFile, *dataset, *schedule, *arrivalF,
		*duration, *rps, *cv, *shape, *amplitude, *period, *seed)
	if err != nil {
		fatal(err)
	}
	if *upscale != 1 && *specFile == "" {
		tr = workload.Upscale(tr, *upscale, *seed+1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := tr.WriteCSV(w); err != nil {
		fatal(err)
	}
	in, outLen := tr.MeanLens()
	fmt.Fprintf(os.Stderr, "%d requests over %v (avg %.1f req/s, mean in/out %.0f/%.0f tokens)\n",
		len(tr.Requests), tr.Duration(), tr.AvgRPS(), in, outLen)
}

func buildTrace(specFile, dataset, schedule, arrivalName string,
	duration, rps, cv, shape, amplitude, period float64, seed int64) (*workload.Trace, error) {
	if specFile != "" {
		s, err := spec.Load(specFile)
		if err != nil {
			return nil, err
		}
		return s.Compile()
	}

	ds, err := workload.DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	d, err := workload.DurationSeconds(duration)
	if err != nil {
		return nil, fmt.Errorf("-duration: %w", err)
	}

	if arrivalName != "" {
		proc, err := buildProcess(arrivalName, rps, cv, shape, amplitude, period, d)
		if err != nil {
			return nil, err
		}
		return workload.GenerateProcess(seed, d, proc, ds), nil
	}

	// The schedules scale -rps without the arrival constructors' checks:
	// a NaN or infinite rate never stops generating, and a non-positive
	// one wrote an empty trace.
	if !(rps > 0) || math.IsInf(rps, 1) {
		return nil, fmt.Errorf("-rps must be positive and finite, got %v", rps)
	}
	var sched []workload.RateSegment
	switch schedule {
	case "burst":
		sched = workload.ScaledBurstSchedule(rps, d)
	case "longrun":
		sched = workload.ScaledLongRunSchedule(rps, d)
	case "steady":
		sched = workload.SteadySchedule(rps)
	default:
		return nil, fmt.Errorf("unknown -schedule %q", schedule)
	}
	return workload.Generate(seed, d, sched, ds), nil
}

// buildProcess maps the CLI flags onto the spec layer's shared arrival
// constructor so flag and spec behavior cannot diverge.
func buildProcess(name string, rps, cv, shape, amplitude, period float64,
	duration sim.Duration) (arrival.Process, error) {
	// The spec layer treats zero CV/shape as "use the default"; flags are
	// always explicit, so reject zeros here instead of silently defaulting.
	if name == "gamma" && cv <= 0 {
		return nil, fmt.Errorf("-cv must be positive, got %v", cv)
	}
	if name == "weibull" && shape <= 0 {
		return nil, fmt.Errorf("-shape must be positive, got %v", shape)
	}
	a := spec.Arrival{Process: name, CV: cv, Shape: shape, Amplitude: &amplitude, PeriodS: period}
	if name == "mmpp" {
		// A calm/hot two-state default mirroring the §5.1 burst ratio,
		// with random burst onsets instead of fixed times.
		a.States = []spec.MMPPState{
			{RateMultiplier: 1, MeanSojournS: duration.Seconds() / 4},
			{RateMultiplier: 2.1, MeanSojournS: duration.Seconds() / 8},
		}
	}
	proc, err := a.Build(rps, duration)
	if err != nil {
		return nil, fmt.Errorf("-arrival %s: %w", name, err)
	}
	return proc, nil
}

// checkUpscale rejects an -upscale that is not a positive, finite factor:
// NaN and infinite factors wrote an empty trace, and 0 or a negative one
// panicked.
func checkUpscale(v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("-upscale must be positive and finite, got %v", v)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
