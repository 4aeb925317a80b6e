package arrival

import (
	"fmt"
	"math"
	"math/rand"

	"kunserve/internal/sim"
)

// Diurnal is a nonhomogeneous Poisson process with a sine-modulated rate
//
//	rate(t) = Base * (1 + Amplitude*sin(2*pi*t/Period + Phase))
//
// modeling day/night load cycles. Amplitude in [0, 1] keeps the rate
// nonnegative; Phase shifts where in the cycle the trace starts.
type Diurnal struct {
	Base      float64      // mean rate, requests per second
	Amplitude float64      // relative swing, 0..1
	Period    sim.Duration // cycle length
	Phase     float64      // radians
}

// NewDiurnal validates and builds a sine-modulated Poisson process.
func NewDiurnal(base, amplitude float64, period sim.Duration, phase float64) (*Diurnal, error) {
	if !positive(base) {
		return nil, fmt.Errorf("arrival: diurnal base rate must be positive and finite, got %v", base)
	}
	if !(amplitude >= 0 && amplitude <= 1) {
		return nil, fmt.Errorf("arrival: diurnal amplitude must be in [0,1], got %v", amplitude)
	}
	if math.IsNaN(phase) || math.IsInf(phase, 0) {
		return nil, fmt.Errorf("arrival: diurnal phase must be finite, got %v", phase)
	}
	if period <= 0 {
		return nil, fmt.Errorf("arrival: diurnal period must be positive, got %v", period)
	}
	return &Diurnal{Base: base, Amplitude: amplitude, Period: period, Phase: phase}, nil
}

// Name implements Process.
func (d *Diurnal) Name() string { return "diurnal" }

// RateAt returns the instantaneous rate at t.
func (d *Diurnal) RateAt(t sim.Time) float64 {
	return d.Base * (1 + d.Amplitude*math.Sin(2*math.Pi*t.Seconds()/d.Period.Seconds()+d.Phase))
}

// Next implements Process via Lewis-Shedler thinning against the peak rate
// Base*(1+Amplitude): candidate arrivals at the peak rate are accepted with
// probability rate(t)/peak, which yields the exact nonhomogeneous process.
func (d *Diurnal) Next(rng *rand.Rand, now sim.Time) (sim.Time, bool) {
	peak := d.Base * (1 + d.Amplitude)
	t := now
	for {
		t = t.Add(sim.DurationFromSeconds(rng.ExpFloat64() / peak))
		if rng.Float64()*peak <= d.RateAt(t) {
			return t, true
		}
	}
}
