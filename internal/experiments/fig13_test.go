package experiments

import (
	"slices"
	"testing"

	"kunserve/internal/runner"
)

// Figure13From's violation ratios on hand-built runs. Every case sets the
// reference to a 0.1 s P50 TTFT and a 50 ms P50 TPOT, so scale s puts
// the limits at 0.1·s seconds and 0.05·s seconds.
func TestFigure13FromViolations(t *testing.T) {
	// flat is a ratio that holds at all nine scales.
	flat := func(v float64) []float64 { return slices.Repeat([]float64{v}, 9) }
	ref := runner.Summary{TTFTP50: 0.1, TPOTP50: 0.05}
	// Ten requests with TTFTs 0.1..1.0 s and a 10 ms TPOT over 11 tokens.
	var ladder runner.Summary
	for i := 1; i <= 10; i++ {
		ladder.TTFTs = append(ladder.TTFTs, float64(i)*0.1)
		ladder.TPOTs = append(ladder.TPOTs, 0.01)
		ladder.Outputs = append(ladder.Outputs, 11)
	}
	ladder.TTFTP50, ladder.TPOTP50 = 0.1, 0.05
	// A fast first token followed by a 1 s TPOT.
	slowTPOT := runner.Summary{TTFTs: []float64{0.01}, TPOTs: []float64{1}, Outputs: []int{11}}
	// One request served inside every limit, one never served.
	halfServed := runner.Summary{TTFTs: []float64{0.01}, TPOTs: []float64{0.01}, Outputs: []int{11}, Unserved: 1}

	cases := []struct {
		name string
		run  runner.Summary
		want []float64
	}{
		// TTFT > 0.1·s: requests s+1..10 of ten.
		{"ttft over the limit", ladder, []float64{0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0}},
		{"tpot only", slowTPOT, flat(1)},
		{"empty run", runner.Summary{}, flat(0)},
		{"unserved", halfServed, flat(0.5)},
		{"nothing served", runner.Summary{Unserved: 3}, flat(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := &Figure12Result{Systems: []SystemRun{
				{System: SysVLLMDP, Summary: ref},
				{System: SysKunServe, Summary: tc.run},
			}}
			res := Figure13From(runs)
			if res.RefP50TTFT != 0.1 || res.RefP50TPOT != 0.05 {
				t.Fatalf("reference P50s %v/%v, want 0.1/0.05", res.RefP50TTFT, res.RefP50TPOT)
			}
			if got := res.Violations[SysKunServe]; !slices.Equal(got, tc.want) {
				t.Errorf("violations %v, want %v", got, tc.want)
			}
			// The reference run holds no requests: no violations.
			if got := res.Violations[SysVLLMDP]; !slices.Equal(got, flat(0)) {
				t.Errorf("empty reference run violations %v", got)
			}
		})
	}
}
