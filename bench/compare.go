package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compare prints an A/B comparison of two directories of kbench -json
// reports: side A (the parent) and side B (the change). Reports pair up by
// file-name order within each (workload, seed). Only clean pairs are timed:
// pairs in which no cell failed on either side and both sides report every
// end-to-end metric. For each end-to-end metric it prints both sides'
// medians and quartiles over the clean pairs, how many of them B won, and a
// verdict:
//
//   - invalid: B failed more cells than A, or no pair is clean, so its
//     times do not measure the same work;
//   - gain: there are at least 10 clean pairs, B wins at least 9 in 10 of
//     them, and B's median is better than A's by more than A's IQR;
//   - unresolved: A's own spread (IQR over median) exceeds the metric's
//     bound, so no change cannot be told from a regression, and not every
//     B run beats every A run;
//   - regression: B's median is worse than A's by more than the bound;
//   - no change: otherwise.
func compare(dirA, dirB string, w io.Writer) error {
	a, err := loadReports(dirA)
	if err != nil {
		return err
	}
	b, err := loadReports(dirB)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		seed     int64
	}
	var keys []key
	ga, gb := map[key][]workloadReport{}, map[key][]workloadReport{}
	for _, r := range a {
		for _, wr := range r.Workloads {
			k := key{wr.Workload, wr.Seed}
			if ga[k] == nil {
				keys = append(keys, k)
			}
			ga[k] = append(ga[k], wr)
		}
	}
	for _, r := range b {
		for _, wr := range r.Workloads {
			k := key{wr.Workload, wr.Seed}
			gb[k] = append(gb[k], wr)
		}
	}
	for _, k := range keys {
		ra, rb := ga[k], gb[k]
		if len(ra) != len(rb) {
			return fmt.Errorf("%s seed %d: %d reports in %s but %d in %s",
				k.workload, k.seed, len(ra), dirA, len(rb), dirB)
		}
		same, failedA, failedB := 0, 0, 0
		var clean []int
		for i := range ra {
			if ra[i].Digest == rb[i].Digest {
				same++
			}
			failedA += ra[i].Failed
			failedB += rb[i].Failed
			if complete(ra[i]) && complete(rb[i]) {
				clean = append(clean, i)
			}
		}
		fmt.Fprintf(w, "== %s  seed %d  %d pairs (%d clean)  digest_match A %s  B %s  same digest %d/%d  failed cells A %d  B %d\n",
			k.workload, k.seed, len(ra), len(clean), digestMatches(ra), digestMatches(rb), same, len(ra), failedA, failedB)
		fmt.Fprintf(w, "  %-14s %-6s %28s %28s %8s %6s  %s\n",
			"metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins", "verdict")
		for _, m := range endToEnd {
			var av, bv []float64
			for _, i := range clean {
				av = append(av, ra[i].Metrics[m.Name].Value)
				bv = append(bv, rb[i].Metrics[m.Name].Value)
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			v, wins := verdict(m, av, bv, failedA, failedB)
			fmt.Fprintf(w, "  %-14s %-6s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%% %3d/%-3d %s\n",
				m.Name, m.Unit, am, aq1, aq3, bm, bq1, bq3, 100*ratio(bm-am, am), wins, len(av), v)
		}
	}
	return nil
}

// complete reports whether a run failed no cell and measured every
// end-to-end metric. A pass whose process died reports zeros, and no
// end-to-end metric is zero in a run that measured it.
func complete(r workloadReport) bool {
	if r.Failed > 0 {
		return false
	}
	for _, m := range endToEnd {
		if r.Metrics[m.Name].Value <= 0 {
			return false
		}
	}
	return true
}

// verdict judges side B against side A for one metric, given its values
// over the clean pairs and each side's failed cells over all pairs, and
// returns the verdict and the number of clean pairs B won (ties count for
// neither).
func verdict(m metric, a, b []float64, failedA, failedB int) (string, int) {
	if failedB > failedA || len(a) == 0 {
		return "invalid", 0
	}
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	aq1, am, aq3 := quartiles(a)
	_, bm, _ := quartiles(b)
	worst, best := b[0], a[0]
	for _, x := range b {
		if better(worst, x) {
			worst = x
		}
	}
	for _, x := range a {
		if better(x, best) {
			best = x
		}
	}
	worse := ratio(bm-am, am)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case len(a) >= 10 && wins*10 >= 9*len(a) && worse < 0 && math.Abs(bm-am) > aq3-aq1:
		return "gain", wins
	case ratio(aq3-aq1, am) > m.Bound && !better(worst, best):
		return "unresolved", wins
	case worse > m.Bound:
		return "regression", wins
	}
	return "no change", wins
}

func digestMatches(rs []workloadReport) string {
	n, ok := 0, 0
	for _, r := range rs {
		if r.DigestMatch != nil {
			n++
			if *r.DigestMatch {
				ok++
			}
		}
	}
	if n == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d", ok, n)
}

// loadReports reads every *.json report in dir, in file-name order.
func loadReports(dir string) ([]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no reports in %s", dir)
	}
	sort.Strings(paths)
	var out []report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}
