package spec

import (
	"bytes"
	"slices"
	"testing"

	"kunserve/internal/sim"
)

// maxFuzzRequests bounds the expected trace length of the specs
// FuzzSpecParse compiles, so every input compiles in milliseconds.
const maxFuzzRequests = 1e4

// fuzzCost estimates what compiling s costs: its request count at each
// client's base rate, or at its largest mmpp multiplier, plus the mmpp
// regime switches.
func fuzzCost(s *Spec) float64 {
	cost := 0.0
	for _, c := range s.Clients {
		peak := 1.0
		for _, st := range c.Arrival.States {
			peak = max(peak, st.RateMultiplier)
			if st.MeanSojournS > 0 {
				cost += s.DurationS / st.MeanSojournS
			}
		}
		cost += s.DurationS * s.TotalRPS * c.RateFraction * peak
	}
	return cost
}

// FuzzSpecParse runs arbitrary bytes through Parse and Compile. Nothing
// may panic, and a spec either fails with an error or compiles to a trace
// whose arrivals are sorted within [0, duration], whose requests all have
// at least one input and one output token, and whose IDs are unique.
// Specs that replay a trace_file (the file system is not the fuzzer's) or
// whose expected trace exceeds maxFuzzRequests are skipped after Parse.
func FuzzSpecParse(f *testing.F) {
	f.Add([]byte(twoClient))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if slices.ContainsFunc(s.Clients, func(c Client) bool { return c.TraceFile != "" }) ||
			!(fuzzCost(s) <= maxFuzzRequests) {
			return
		}
		tr, err := s.Compile()
		if err != nil {
			return
		}
		end := sim.Time(sim.DurationFromSeconds(s.DurationS))
		ids := make(map[int]bool, len(tr.Requests))
		for i, r := range tr.Requests {
			if r.Arrival < 0 || r.Arrival > end {
				t.Fatalf("request %d arrives at %v, outside [0, %v]", r.ID, r.Arrival, end)
			}
			if i > 0 && r.Arrival < tr.Requests[i-1].Arrival {
				t.Fatalf("request %d arrives at %v, before its predecessor at %v",
					r.ID, r.Arrival, tr.Requests[i-1].Arrival)
			}
			if r.InputLen < 1 || r.OutputLen < 1 {
				t.Fatalf("request %d has %d input and %d output tokens", r.ID, r.InputLen, r.OutputLen)
			}
			if ids[r.ID] {
				t.Fatalf("request ID %d repeats", r.ID)
			}
			ids[r.ID] = true
		}
	})
}
