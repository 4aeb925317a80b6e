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

// -rps must be a positive, finite rate under -schedule and -arrival alike:
// NaN and infinite rates never stopped generating, and -rps 0 or -5 under
// -schedule wrote an empty trace with exit status 0.
func TestBuildTraceRate(t *testing.T) {
	for _, rps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5} {
		for _, arrival := range []string{"", "poisson", "gamma", "weibull", "diurnal", "mmpp"} {
			if _, err := buildTrace("", "burstgpt", "burst", arrival, 128, rps, 1, 1, 0.5, 0, 42); err == nil {
				t.Errorf("-rps %v -arrival %q accepted", rps, arrival)
			}
		}
	}
	for _, schedule := range []string{"burst", "longrun", "steady"} {
		if tr, err := buildTrace("", "burstgpt", schedule, "", 128, 10, 1, 1, 0.5, 0, 42); err != nil || len(tr.Requests) == 0 {
			t.Errorf("-schedule %s -rps 10: error %v", schedule, err)
		}
	}
}

func TestCheckUpscale(t *testing.T) {
	for _, c := range []struct {
		v  float64
		ok bool
	}{
		{1, true},
		{2.5, true},
		{0, false},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		if err := checkUpscale(c.v); (err == nil) != c.ok {
			t.Errorf("checkUpscale(%v) = %v; want ok %v", c.v, err, c.ok)
		}
	}
}
