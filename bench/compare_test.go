package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	wall := metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	tput := metric{Name: "sim_tok_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	// A crashed pass reads wall_s 0: a win on every pair it is in.
	crashed := append(scaled(steady[:9], 0.8), 0)
	for _, c := range []struct {
		name             string
		m                metric
		a, b             []float64
		failedA, failedB int
		want             string
	}{
		{"same", wall, steady, steady, 0, 0, "no change"},
		{"slower", wall, steady, scaled(steady, 1.2), 0, 0, "regression"},
		{"faster", wall, steady, scaled(steady, 0.8), 0, 0, "gain"},
		{"more throughput", tput, steady, scaled(steady, 1.2), 0, 0, "gain"},
		{"less throughput", tput, steady, scaled(steady, 0.8), 0, 0, "regression"},
		{"noisy parent", wall, noisy, scaled(noisy, 1.05), 0, 0, "unresolved"},
		{"noisy parent, clear win", wall, noisy, scaled(steady, 0.4), 0, 0, "gain"},
		{"noisier parent, every run better", wall, []float64{5, 20, 8, 18, 10, 6, 16, 9, 14, 12}, scaled(steady, 0.49), 0, 0, "no change"},
		{"too few pairs", wall, steady[:3], scaled(steady[:3], 0.8), 0, 0, "no change"},
		{"change fails a pass", wall, steady, crashed, 0, 1, "invalid"},
		{"change fails more cells", wall, steady, scaled(steady, 0.8), 2, 3, "invalid"},
		{"no clean pair", wall, nil, nil, 1, 1, "invalid"},
	} {
		if got, _ := verdict(c.m, c.a, c.b, c.failedA, c.failedB); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestLeastMetric: peak_rss_mb reports its least pass value, the others
// their median.
func TestLeastMetric(t *testing.T) {
	p := mustWorkload(t, paperBurst)
	var passes []passResult
	for _, v := range [][2]float64{{22, 5}, {33, 4}, {23, 6}} {
		passes = append(passes, passResult{Cells: 1, Metrics: map[string]float64{"peak_rss_mb": v[0], "wall_s": v[1]}})
	}
	r := aggregate(p, 7, passes, nil)
	if got := r.Metrics["peak_rss_mb"].Value; got != 22 {
		t.Errorf("peak_rss_mb %v, want the least pass value 22", got)
	}
	if got := r.Metrics["wall_s"].Value; got != 5 {
		t.Errorf("wall_s %v, want the median 5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, med, q3)
	}
}

// writeReport writes a one-workload report with every end-to-end metric 1
// except wall_s. A run with failed cells reads zeros, as a crashed pass does.
func writeReport(t *testing.T, dir, name string, wall float64, failed int) {
	t.Helper()
	match := true
	wr := workloadReport{
		Workload: paperBurst, Seed: defaultSeed, Digest: "d", DigestMatch: &match,
		Attempted: 40, Failed: failed, Metrics: map[string]stat{},
	}
	for _, m := range endToEnd {
		wr.Metrics[m.Name] = stat{Value: 1}
	}
	wr.Metrics["wall_s"] = stat{Value: wall}
	if failed > 0 {
		for k := range wr.Metrics {
			wr.Metrics[k] = stat{}
		}
	}
	b, err := json.Marshal(report{Workloads: []workloadReport{wr}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// compareLines runs compare on dir/a and dir/b and returns its output and
// its wall_s line.
func compareLines(t *testing.T, dir string) (string, string) {
	t.Helper()
	var out bytes.Buffer
	if err := compare(filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, "wall_s") {
			return s, l
		}
	}
	return s, ""
}

// TestCompareReportDirs pairs two directories of reports and prints a
// verdict per end-to-end metric.
func TestCompareReportDirs(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"p01.json", "p02.json", "p03.json"} {
		writeReport(t, filepath.Join(dir, "a"), name, 10+float64(i)*0.01, 0)
		writeReport(t, filepath.Join(dir, "b"), name, 5+float64(i)*0.01, 0)
	}
	s, wallLine := compareLines(t, dir)
	if !strings.Contains(s, "3 pairs (3 clean)") || !strings.Contains(s, "digest_match A 3/3") {
		t.Errorf("missing header:\n%s", s)
	}
	if !strings.Contains(wallLine, "3/3") || !strings.HasSuffix(wallLine, "no change") {
		t.Errorf("wall_s line %q", wallLine)
	}
}

// TestCompareFailedPass: a change whose pass crashed is not timed on that
// pair, and cannot be judged a gain however fast its other runs are.
func TestCompareFailedPass(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("p%02d.json", i)
		writeReport(t, filepath.Join(dir, "a"), name, 10+float64(i)*0.01, 0)
		failed := 0
		if i == 4 {
			failed = 1
		}
		writeReport(t, filepath.Join(dir, "b"), name, 5+float64(i)*0.01, failed)
	}
	s, wallLine := compareLines(t, dir)
	if !strings.Contains(s, "10 pairs (9 clean)") || !strings.Contains(s, "failed cells A 0  B 1") {
		t.Errorf("missing header:\n%s", s)
	}
	if !strings.HasSuffix(wallLine, "invalid") {
		t.Errorf("wall_s line %q, want the verdict invalid", wallLine)
	}
}
