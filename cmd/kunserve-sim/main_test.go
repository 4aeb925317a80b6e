package main

import (
	"math"
	"testing"

	"kunserve/internal/sim"
)

// -duration 0 keeps the experiment's duration; any other value must be a
// duration a sim.Time holds: a longer one overflowed, and the run reported
// all-zero results with exit status 0.
func TestDurationOverride(t *testing.T) {
	for _, c := range []struct {
		s    float64
		want sim.Duration
		ok   bool
	}{
		{0, 0, true},
		{300, 300 * sim.Second, true},
		{1e10, 0, false},
		{-1, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
	} {
		d, err := durationOverride(c.s)
		if (err == nil) != c.ok || d != c.want {
			t.Errorf("durationOverride(%v) = %v, %v; want %v, ok %v", c.s, d, err, c.want, c.ok)
		}
	}
}
