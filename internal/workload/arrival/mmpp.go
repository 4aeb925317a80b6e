package arrival

import (
	"fmt"
	"math"
	"math/rand"

	"kunserve/internal/sim"
)

// MMPPState is one rate regime of a Markov-modulated Poisson process.
type MMPPState struct {
	Rate        float64      // arrival rate while in this state, requests per second
	MeanSojourn sim.Duration // mean exponential dwell time
}

// MMPP is a Markov-modulated Poisson process: the generator dwells in each
// state for an exponential sojourn, emitting Poisson arrivals at that
// state's rate, then jumps uniformly at random to another state. With a
// calm state and a ~2x hot state it generalizes the paper's hand-crafted
// burst schedules — the same spike-and-relax pattern, but with random burst
// onsets so experiments are not tuned to a fixed burst time.
type MMPP struct {
	States []MMPPState

	started  bool
	state    int
	stateEnd sim.Time
}

// NewMMPP validates and builds an MMPP starting in state 0.
func NewMMPP(states []MMPPState) (*MMPP, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("arrival: mmpp needs at least one state")
	}
	anyPositive := false
	for i, s := range states {
		if !(s.Rate >= 0) || math.IsInf(s.Rate, 1) {
			return nil, fmt.Errorf("arrival: mmpp state %d has rate %v, want non-negative and finite", i, s.Rate)
		}
		if s.Rate > 0 {
			anyPositive = true
		}
		if s.MeanSojourn <= 0 {
			return nil, fmt.Errorf("arrival: mmpp state %d has non-positive sojourn %v", i, s.MeanSojourn)
		}
	}
	if !anyPositive {
		return nil, fmt.Errorf("arrival: mmpp has no state with positive rate")
	}
	return &MMPP{States: states}, nil
}

// Name implements Process.
func (m *MMPP) Name() string { return "mmpp" }

// transition draws the sojourn end for the current state, or jumps to the
// next state (uniform over the others) when called at a state boundary.
func (m *MMPP) transition(rng *rand.Rand, at sim.Time) {
	if len(m.States) > 1 {
		next := rng.Intn(len(m.States) - 1)
		if next >= m.state {
			next++
		}
		m.state = next
	}
	mean := m.States[m.state].MeanSojourn.Seconds()
	m.stateEnd = at.Add(sim.DurationFromSeconds(rng.ExpFloat64() * mean))
}

// Next implements Process. Within a state, arrivals are exponential at the
// state rate; a candidate past the sojourn end is discarded and the clock
// jumps to the boundary — valid because the within-state Poisson process is
// memoryless. MMPP is stateful: use a fresh instance per generation run.
func (m *MMPP) Next(rng *rand.Rand, now sim.Time) (sim.Time, bool) {
	if !m.started {
		m.started = true
		m.state = 0
		mean := m.States[0].MeanSojourn.Seconds()
		m.stateEnd = now.Add(sim.DurationFromSeconds(rng.ExpFloat64() * mean))
	}
	t := now
	for {
		rate := m.States[m.state].Rate
		if rate <= 0 {
			t = m.stateEnd
			m.transition(rng, t)
			continue
		}
		cand := t.Add(sim.DurationFromSeconds(rng.ExpFloat64() / rate))
		if cand < m.stateEnd {
			return cand, true
		}
		t = m.stateEnd
		m.transition(rng, t)
	}
}
