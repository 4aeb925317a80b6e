package experiments

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseSweep checks ParseSweep's contract on arbitrary input: whenever
// it accepts a directive, the grid is non-empty, every value is finite,
// positive and within the directive's [lo, hi], values strictly ascend,
// and the integer keys get integer values. The seed corpus lives in
// testdata/fuzz/FuzzParseSweep.
func FuzzParseSweep(f *testing.F) {
	for _, s := range []string{
		"load=0.5:2.0:0.25", "seed=1:32:1", "rep=1:4:1", "instances=2:8:2",
		"duration=64:128:32", "rps=0.1:0.3:0.1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		key, values, err := ParseSweep(s)
		if err != nil {
			return
		}
		if !slices.Contains(SweepKeys, key) {
			t.Fatalf("ParseSweep(%q) accepted unknown key %q", s, key)
		}
		_, rangeSpec, _ := strings.Cut(s, "=")
		parts := strings.Split(rangeSpec, ":")
		lo, _ := strconv.ParseFloat(parts[0], 64)
		hi, _ := strconv.ParseFloat(parts[1], 64)
		if len(values) == 0 {
			t.Fatalf("ParseSweep(%q) returned no values", s)
		}
		integer := key == "seed" || key == "rep" || key == "instances"
		for i, v := range values {
			switch {
			case math.IsNaN(v) || math.IsInf(v, 0):
				t.Fatalf("ParseSweep(%q): value %d is %g", s, i, v)
			case v <= 0:
				t.Fatalf("ParseSweep(%q): value %d is %g, want > 0", s, i, v)
			case v < lo || v > hi:
				t.Fatalf("ParseSweep(%q): value %d is %g, outside [%g, %g]", s, i, v, lo, hi)
			case i > 0 && v <= values[i-1]:
				t.Fatalf("ParseSweep(%q): values %v do not ascend", s, values)
			case integer && v != math.Trunc(v):
				t.Fatalf("ParseSweep(%q): %s value %g is not an integer", s, key, v)
			}
		}
	})
}
