// Package arrival provides pluggable request-arrival processes for workload
// generation. A Process emits a deterministic (given a seeded RNG) sequence
// of arrival times; the workload package pairs it with token-length
// distributions to produce a Trace.
//
// The implemented processes cover the scenario space of the paper's
// evaluation and beyond:
//
//   - Poisson / Piecewise: memoryless arrivals at a constant or
//     piecewise-constant rate (the BurstGPT-style burst schedules).
//   - Gamma: renewal process with a configurable coefficient of variation;
//     CV > 1 yields burstier-than-Poisson arrivals, CV = 1 is Poisson.
//   - Weibull: renewal process with Weibull inter-arrivals (shape < 1 is
//     heavy-tailed/bursty, shape > 1 is more regular than Poisson).
//   - Diurnal: nonhomogeneous Poisson with a sine-modulated rate, for
//     day/night load cycles.
//   - MMPP: Markov-modulated Poisson process — random sojourns in discrete
//     rate states, generalizing the hand-crafted burst schedules.
package arrival

import (
	"math"
	"math/rand"

	"kunserve/internal/sim"
)

// positive reports whether v is a positive, finite number. A NaN or
// infinite rate passes a v <= 0 check, and generating arrivals at it never
// ends.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Process generates a monotone sequence of arrival times. Next returns the
// first arrival strictly after now, drawing all randomness from rng; ok is
// false when no further arrival will ever occur (e.g. the rate schedule has
// ended). Implementations may carry state (MMPP does), so use a fresh
// Process per generation run and a dedicated seeded RNG for determinism.
type Process interface {
	// Name identifies the process family (e.g. "poisson", "gamma").
	Name() string
	// Next returns the next arrival time after now.
	Next(rng *rand.Rand, now sim.Time) (t sim.Time, ok bool)
}

// Segment starts a new piecewise-constant arrival rate at Start.
type Segment struct {
	Start sim.Time
	RPS   float64
}
