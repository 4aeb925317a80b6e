package arrival

import (
	"fmt"
	"math"
	"math/rand"

	"kunserve/internal/sim"
)

// Piecewise is a Poisson process whose rate follows a piecewise-constant
// schedule: exponential gaps at the rate active when the previous arrival
// (or the start) occurred. This is exactly the generator the paper's burst
// and long-run schedules use, so existing traces are reproduced bit-for-bit
// under the same seed.
type Piecewise struct {
	Segments []Segment // sorted by Start
}

// NewPiecewise validates and builds a piecewise-constant Poisson process.
func NewPiecewise(segs []Segment) (*Piecewise, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("arrival: empty rate schedule")
	}
	for i, s := range segs {
		if !(s.RPS >= 0) || math.IsInf(s.RPS, 1) {
			return nil, fmt.Errorf("arrival: segment %d has rate %v, want non-negative and finite", i, s.RPS)
		}
		if i > 0 && s.Start < segs[i-1].Start {
			return nil, fmt.Errorf("arrival: segments not sorted at %d", i)
		}
	}
	return &Piecewise{Segments: segs}, nil
}

// Name implements Process.
func (p *Piecewise) Name() string { return "poisson" }

// rateAt returns the rate active at t; segments must be sorted by Start.
func (p *Piecewise) rateAt(t sim.Time) float64 {
	rate := 0.0
	for _, s := range p.Segments {
		if s.Start > t {
			break
		}
		rate = s.RPS
	}
	return rate
}

// Next implements Process. When the active rate is zero it skips ahead to
// the next segment boundary without consuming randomness, preserving the
// RNG call order of the original workload generator.
func (p *Piecewise) Next(rng *rand.Rand, now sim.Time) (sim.Time, bool) {
	for {
		rate := p.rateAt(now)
		if rate <= 0 {
			next, found := sim.Time(0), false
			for _, s := range p.Segments {
				if s.Start > now && (!found || s.Start < next) {
					next, found = s.Start, true
				}
			}
			if !found {
				return 0, false
			}
			now = next
			continue
		}
		gap := sim.DurationFromSeconds(rng.ExpFloat64() / rate)
		return now.Add(gap), true
	}
}

// Poisson is a constant-rate memoryless arrival process.
type Poisson struct {
	Rate float64 // requests per second
}

// NewPoisson validates and builds a constant-rate Poisson process.
func NewPoisson(rps float64) (*Poisson, error) {
	if !positive(rps) {
		return nil, fmt.Errorf("arrival: poisson rate must be positive and finite, got %v", rps)
	}
	return &Poisson{Rate: rps}, nil
}

// Name implements Process.
func (p *Poisson) Name() string { return "poisson" }

// Next implements Process.
func (p *Poisson) Next(rng *rand.Rand, now sim.Time) (sim.Time, bool) {
	if p.Rate <= 0 {
		return 0, false
	}
	return now.Add(sim.DurationFromSeconds(rng.ExpFloat64() / p.Rate)), true
}
