package main

import (
	"math"
	"testing"
)

// -duration must fit a sim.Time: a longer one overflowed into an empty
// trace written with exit status 0.
func TestBuildTraceDuration(t *testing.T) {
	for _, c := range []struct {
		duration float64
		arrival  string
		ok       bool
	}{
		{128, "", true},
		{128, "poisson", true},
		{1e10, "", false},
		{1e10, "poisson", false},
		{math.NaN(), "", false},
		{0, "", false},
		{-5, "gamma", false},
	} {
		tr, err := buildTrace("", "burstgpt", "burst", c.arrival, c.duration, 10, 1, 1, 0.5, 0, 42)
		if (err == nil) != c.ok {
			t.Errorf("-duration %v -arrival %q: error %v, want ok %v", c.duration, c.arrival, err, c.ok)
		}
		if err == nil && len(tr.Requests) == 0 {
			t.Errorf("-duration %v -arrival %q: empty trace", c.duration, c.arrival)
		}
	}
}
