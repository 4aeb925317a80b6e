package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
)

func TestMain(m *testing.M) {
	probeReps = 1
	os.Exit(m.Run())
}

// inProcess is the test executor: passes run in the test process, and peak
// RSS is the process's own.
func inProcess(p params, seed int64, traced bool) passResult {
	res := runPass(p, seed, traced)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	return res
}

// tiny is the test hook that shrinks a pinned workload to a two-instance,
// eight-second trace at the same per-instance rate.
func tiny(p params) params {
	p.RPS *= 2 / float64(p.Instances)
	p.Instances, p.DurationS, p.DrainS, p.Seeds, p.Golden = 2, 8, 30, 1, ""
	return p
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests
// check against the metric table.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

// metricJSON is one metric entry of BENCHMARK.json (per-layer entries have
// no bound).
type metricJSON struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesMetricTable keeps BENCHMARK.json and the metric
// table kbench reports from drifting apart.
func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, pinned.json %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, pinned.json %q", i, w.Name, workloads[i].Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, kbench %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if k := endToEnd[i]; m.Name != k.Name || m.Unit != k.Unit || m.Better != k.Better || m.Bound != k.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, kbench %+v", i, m, k)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, kbench %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		if k := perLayerMetrics[i]; m.Name != k.Name || m.Unit != k.Unit || m.Better != k.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, kbench %+v", i, m, k)
		}
	}
}

// lastLineMetrics parses the one-line JSON result kbench prints last.
func lastLineMetrics(t *testing.T, out string) (correct bool, failed int, names map[string]bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if line.Attempted < 1 {
		t.Fatalf("attempted %d", line.Attempted)
	}
	names = map[string]bool{}
	for n := range line.Metrics {
		names[n] = true
	}
	return line.Correct, line.Failed, names
}

// TestTinyWorkloadsEmitEveryMetric runs each workload at a tiny size,
// checks that it is deterministic, and that the result line carries exactly
// the metrics BENCHMARK.json lists for -trace 0 and -trace 1.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, pinned := range workloads {
		p := tiny(pinned)
		t.Run(p.Name, func(t *testing.T) {
			a, b := runPass(p, 7, false), runPass(p, 7, false)
			if len(a.Failures)+len(b.Failures) > 0 {
				t.Fatalf("failures: %v %v", a.Failures, b.Failures)
			}
			if a.Digest != b.Digest {
				t.Fatalf("output_digest %s then %s", a.Digest, b.Digest)
			}
			reports, traced := run(runConfig{workloads: []params{p}, seed: 7, reps: 2, trace: -1}, inProcess, io.Discard)
			if len(traced) != 1 || len(traced[0].Spans) == 0 {
				t.Fatalf("traced pass recorded no spans")
			}
			for trace, want := range map[int][]string{
				0: namesOf(bj.EndToEnd), 1: namesOf(bj.PerLayer),
			} {
				var out bytes.Buffer
				if code := printReports(&out, reports, trace); code != 0 {
					t.Fatalf("exit code %d:\n%s", code, out.String())
				}
				correct, failed, got := lastLineMetrics(t, out.String())
				if !correct || failed != 0 {
					t.Errorf("-trace %d: correct %t failed %d", trace, correct, failed)
				}
				if len(got) != len(want) {
					t.Errorf("-trace %d: %d metrics, BENCHMARK.json lists %d", trace, len(got), len(want))
				}
				for _, n := range want {
					if !got[n] {
						t.Errorf("-trace %d: metric %s missing", trace, n)
					}
				}
			}
		})
	}
}

func namesOf(ms []metricJSON) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}
