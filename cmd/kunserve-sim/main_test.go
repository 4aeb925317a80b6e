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

// -load, when set, must be a positive, finite multiplier: an infinite one
// generated arrivals until memory ran out, and -1, 0 and NaN silently ran
// the default load.
func TestLoadOverride(t *testing.T) {
	for _, c := range []struct {
		v    float64
		set  bool
		want float64
		ok   bool
	}{
		{0, false, 0, true},
		{1.5, true, 1.5, true},
		{0, true, 0, false},
		{-1, true, 0, false},
		{math.NaN(), true, 0, false},
		{math.Inf(1), true, 0, false},
	} {
		l, err := loadOverride(c.v, c.set)
		if (err == nil) != c.ok || l != c.want {
			t.Errorf("loadOverride(%v, set %v) = %v, %v; want %v, ok %v", c.v, c.set, l, err, c.want, c.ok)
		}
	}
}

// -instances must be positive when set (a negative count and an explicit
// 0 silently ran the default, and on -exp scale a 0 turned the 512-instance
// ladder into a 2-instance one); -parallel must not be negative.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		instances int
		set       bool
		parallel  int
		ok        bool
	}{
		{0, false, 0, true},
		{64, true, 8, true},
		{0, true, 0, false},
		{-4, true, 0, false},
		{2, true, -3, false},
	} {
		if err := checkCounts(c.instances, c.set, c.parallel); (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, set %v, %d) = %v; want ok %v", c.instances, c.set, c.parallel, err, c.ok)
		}
	}
}
