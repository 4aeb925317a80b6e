package spec

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

const twoClient = `{
  "name": "mix",
  "seed": 42,
  "duration_s": 600,
  "total_rps": 10,
  "clients": [
    {"name": "interactive", "rate_fraction": 0.7, "slo_class": "strict",
     "arrival": {"process": "gamma", "cv": 3.5}, "dataset": "sharegpt"},
    {"name": "batch", "rate_fraction": 0.3, "slo_class": "batch",
     "arrival": {"process": "poisson"}, "dataset": "longbench"}
  ]
}`

func TestParseAndCompileTwoClient(t *testing.T) {
	s, err := Parse(strings.NewReader(twoClient))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "mix" {
		t.Errorf("trace name %q", tr.Name)
	}
	// Aggregate rate near total_rps, per-client rates near their fractions.
	if got := tr.AvgRPS(); math.Abs(got-10)/10 > 0.15 {
		t.Errorf("aggregate rate %.2f, want ~10", got)
	}
	counts := map[string]int{}
	classes := map[string]string{}
	for i, r := range tr.Requests {
		if r.ID != i {
			t.Fatal("IDs not dense")
		}
		if i > 0 && r.Arrival < tr.Requests[i-1].Arrival {
			t.Fatal("not time-ordered")
		}
		counts[r.Client]++
		classes[r.Client] = r.Class
	}
	dur := tr.Duration().Seconds()
	for client, want := range map[string]float64{"interactive": 7, "batch": 3} {
		got := float64(counts[client]) / dur
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("client %q rate %.2f, want ~%.1f within 15%%", client, got, want)
		}
	}
	if classes["interactive"] != "strict" || classes["batch"] != "batch" {
		t.Errorf("slo classes lost: %v", classes)
	}
}

func TestCompileDeterministic(t *testing.T) {
	parse := func() *Spec {
		s, err := Parse(strings.NewReader(twoClient))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, err := parse().Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parse().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("same spec, different counts %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

// Spec -> trace -> CSV -> trace must round-trip exactly (modulo sub-ns
// arrival truncation in the CSV's microsecond precision).
func TestSpecTraceCSVRoundTrip(t *testing.T) {
	s, err := Parse(strings.NewReader(twoClient))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := workload.ReadCSV(tr.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Fatalf("round trip lost requests: %d vs %d", len(back.Requests), len(tr.Requests))
	}
	for i := range tr.Requests {
		a, b := tr.Requests[i], back.Requests[i]
		if a.ID != b.ID || a.InputLen != b.InputLen || a.OutputLen != b.OutputLen ||
			a.Client != b.Client || a.Class != b.Class {
			t.Fatalf("request %d differs: %+v vs %+v", i, a, b)
		}
		if d := a.Arrival.Sub(b.Arrival); d > sim.Microsecond || d < -sim.Microsecond {
			t.Fatalf("request %d arrival drift %v", i, d)
		}
	}
}

func TestTraceReplayClient(t *testing.T) {
	dir := t.TempDir()
	rec := workload.Generate(3, 60*sim.Second, workload.SteadySchedule(5), workload.BurstGPTDataset())
	f, err := os.Create(filepath.Join(dir, "recorded.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	specJSON := `{
	  "name": "replay",
	  "seed": 1,
	  "duration_s": 60,
	  "total_rps": 4,
	  "clients": [
	    {"name": "live", "rate_fraction": 1.0,
	     "arrival": {"process": "poisson"}, "dataset": "burstgpt"},
	    {"name": "replayed", "slo_class": "batch",
	     "trace_file": "recorded.csv", "upscale": 2.0}
	  ]
	}`
	p := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(p, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var live, replayed int
	for _, r := range tr.Requests {
		switch r.Client {
		case "live":
			live++
		case "replayed":
			if r.Class != "batch" {
				t.Fatal("replayed request lost slo class")
			}
			replayed++
		default:
			t.Fatalf("unexpected client %q", r.Client)
		}
	}
	if live == 0 {
		t.Error("no live requests")
	}
	ratio := float64(replayed) / float64(len(rec.Requests))
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("replayed/recorded = %.2f, want ~2.0 (upscale)", ratio)
	}
}

// The shipped example specs must always parse, validate, and compile.
func TestExampleSpecsCompile(t *testing.T) {
	paths, err := filepath.Glob("../../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		tr, err := s.Compile()
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(tr.Requests) == 0 {
			t.Errorf("%s: compiled to empty trace", p)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]string{
		"no clients":       `{"duration_s": 10, "total_rps": 1, "clients": []}`,
		"zero duration":    `{"duration_s": 0, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt"}]}`,
		"zero rate":        `{"duration_s": 10, "total_rps": 0, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt"}]}`,
		"no name":          `{"duration_s": 10, "total_rps": 1, "clients": [{"rate_fraction": 1, "dataset": "burstgpt"}]}`,
		"zero fraction":    `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "dataset": "burstgpt"}]}`,
		"no lengths":       `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1}]}`,
		"bad dataset":      `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "nope"}]}`,
		"bad process":      `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt", "arrival": {"process": "zeta"}}]}`,
		"bad amplitude":    `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt", "arrival": {"process": "diurnal", "amplitude": 2}}]}`,
		"empty mmpp":       `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt", "arrival": {"process": "mmpp"}}]}`,
		"unknown field":    `{"duration_s": 10, "total_rps": 1, "clientz": []}`,
		"negative cv":      `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt", "arrival": {"process": "gamma", "cv": -1}}]}`,
		"negative upscale": `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "trace_file": "x.csv", "upscale": -1}]}`,
		"negative slo":     `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt"}], "slo_classes": {"x": {"ttft_s": -1}}}`,
		"slo class typo":   `{"duration_s": 10, "total_rps": 1, "clients": [{"name": "a", "rate_fraction": 1, "slo_class": "interactiv", "dataset": "burstgpt"}], "slo_classes": {"interactive": {"ttft_s": 1}}}`,
	}
	for label, js := range cases {
		if _, err := Parse(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

// slo_classes parse into scheduling-layer targets with TBT milliseconds
// converted to seconds.
func TestSLOClassTargets(t *testing.T) {
	js := `{
	  "duration_s": 10, "total_rps": 1,
	  "clients": [{"name": "a", "rate_fraction": 1, "slo_class": "strict", "dataset": "burstgpt"}],
	  "slo_classes": {
	    "strict": {"ttft_s": 0.5, "tbt_ms": 50, "priority": 10},
	    "batch": {"ttft_s": 10}
	  }
	}`
	s, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	targets := s.ClassTargets()
	if len(targets) != 2 {
		t.Fatalf("targets = %v", targets)
	}
	strict := targets["strict"]
	if strict.TTFT != 0.5 || strict.TBT != 0.05 || strict.Priority != 10 {
		t.Errorf("strict = %+v", strict)
	}
	batch := targets["batch"]
	if batch.TTFT != 10 || batch.TBT != 0 || batch.Priority != 0 {
		t.Errorf("batch = %+v", batch)
	}
	if got := targets.Names(); len(got) != 2 || got[0] != "batch" || got[1] != "strict" {
		t.Errorf("Names = %v", got)
	}
	// A spec without slo_classes converts to nil targets.
	s2, err := Parse(strings.NewReader(twoClient))
	if err != nil {
		t.Fatal(err)
	}
	if s2.ClassTargets() != nil {
		t.Error("spec without slo_classes must yield nil targets")
	}
}

// An explicit "amplitude": 0 means a flat diurnal rate, not the 0.5
// default.
func TestDiurnalExplicitZeroAmplitude(t *testing.T) {
	js := `{
	  "name": "flat", "seed": 2, "duration_s": 400, "total_rps": 10,
	  "clients": [
	    {"name": "a", "rate_fraction": 1.0,
	     "arrival": {"process": "diurnal", "amplitude": 0, "period_s": 100},
	     "dataset": "burstgpt"}
	  ]
	}`
	s, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// With zero amplitude the per-cycle-phase rate must be flat: compare
	// first-half-of-cycle arrivals against second-half.
	var first, second int
	for _, r := range tr.Requests {
		if math.Mod(r.Arrival.Seconds(), 100) < 50 {
			first++
		} else {
			second++
		}
	}
	ratio := float64(first) / float64(second)
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("amplitude 0 still modulates: first/second half ratio %.2f", ratio)
	}
}

// Replayed clients are clipped to duration_s so every client covers the
// same window.
func TestReplayClippedToDuration(t *testing.T) {
	dir := t.TempDir()
	rec := workload.Generate(3, 120*sim.Second, workload.SteadySchedule(5), workload.BurstGPTDataset())
	f, err := os.Create(filepath.Join(dir, "long.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	js := `{
	  "name": "clip", "seed": 1, "duration_s": 60,
	  "clients": [{"name": "old", "trace_file": "long.csv"}]
	}`
	p := filepath.Join(dir, "clip.json")
	if err := os.WriteFile(p, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("clipped to nothing")
	}
	if d := tr.Duration(); d >= sim.FromSeconds(60) {
		t.Errorf("replay extends to %v, want < 60s", d)
	}
}

// Burst/longrun schedule processes are reachable from specs, so paper-style
// workloads can be expressed declaratively.
func TestScheduleProcessesInSpec(t *testing.T) {
	js := `{
	  "name": "paper", "seed": 9, "duration_s": 128, "total_rps": 8,
	  "clients": [
	    {"name": "burst", "rate_fraction": 1.0,
	     "arrival": {"process": "burst"}, "dataset": "burstgpt"}
	  ]
	}`
	s, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// The §5.1 burst pattern: rate roughly doubles after the 45/128 mark.
	var before, after int
	for _, r := range tr.Requests {
		if r.Arrival < sim.FromSeconds(45) {
			before++
		} else if r.Arrival < sim.FromSeconds(75) {
			after++
		}
	}
	rBefore := float64(before) / 45
	rAfter := float64(after) / 30
	if ratio := rAfter / rBefore; ratio < 1.5 || ratio > 2.8 {
		t.Errorf("burst ratio = %.2f, want ~2.1", ratio)
	}
}

func TestSharedPrefixCompileAndClamp(t *testing.T) {
	js := `{
	  "name": "sp", "seed": 7, "duration_s": 20, "total_rps": 4,
	  "clients": [
	    {"name": "agent", "rate_fraction": 1, "shared_prefix": 500,
	     "arrival": {"process": "poisson"},
	     "input": {"mean": 520, "sigma": 0.6, "min": 64, "max": 2048},
	     "output": {"mean": 64, "sigma": 0.5, "min": 4, "max": 256}}
	  ]
	}`
	s, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	sawClamped, sawFull := false, false
	for _, r := range tr.Requests {
		if r.SharedPrefix <= 0 {
			t.Fatalf("request %d lost its shared prefix", r.ID)
		}
		if r.SharedPrefix >= r.InputLen {
			t.Fatalf("request %d: shared %d >= input %d (no private token left)",
				r.ID, r.SharedPrefix, r.InputLen)
		}
		if r.SharedPrefix < 500 {
			sawClamped = true
		}
		if r.SharedPrefix == 500 {
			sawFull = true
		}
	}
	// Min input 64 < shared 500 < mean 520: both cases must occur.
	if !sawClamped || !sawFull {
		t.Fatalf("clamp coverage: clamped=%v full=%v", sawClamped, sawFull)
	}
}

func TestSharedPrefixValidation(t *testing.T) {
	js := `{
	  "name": "bad", "seed": 1, "duration_s": 10, "total_rps": 1,
	  "clients": [
	    {"name": "c", "rate_fraction": 1, "shared_prefix": -5,
	     "arrival": {"process": "poisson"}, "dataset": "burstgpt"}
	  ]
	}`
	if _, err := Parse(strings.NewReader(js)); err == nil {
		t.Fatal("negative shared_prefix accepted")
	}
}

func TestSharedPrefixCSVRoundTrip(t *testing.T) {
	js := `{
	  "name": "sp", "seed": 7, "duration_s": 10, "total_rps": 4,
	  "clients": [
	    {"name": "agent", "rate_fraction": 1, "shared_prefix": 200,
	     "arrival": {"process": "poisson"},
	     "input": {"mean": 600, "sigma": 0.4, "min": 256, "max": 2048},
	     "output": {"mean": 64, "sigma": 0.5, "min": 4, "max": 256}}
	  ]
	}`
	s, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "shared_prefix") {
		t.Fatalf("header missing shared_prefix: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	back, err := workload.ReadCSV("sp", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Fatal("length mismatch")
	}
	for i := range back.Requests {
		if back.Requests[i].SharedPrefix != tr.Requests[i].SharedPrefix ||
			back.Requests[i].Client != tr.Requests[i].Client {
			t.Fatalf("row %d: %+v vs %+v", i, back.Requests[i], tr.Requests[i])
		}
	}
}

// Durations past sim.Time's range and non-finite numbers are rejected, not
// compiled: an overflowed duration made the trace silently empty, and NaN
// passes every "must be positive" check written as v <= 0. JSON cannot
// spell NaN or Inf, so those cases build the Spec in Go; both Validate and
// Compile must refuse them.
func TestValidateRejectsOutOfRange(t *testing.T) {
	valid := func() *Spec {
		return &Spec{
			DurationS: 10,
			TotalRPS:  1,
			Clients:   []Client{{Name: "a", RateFraction: 1, Dataset: "burstgpt"}},
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(s *Spec){
		"duration past sim.Time": func(s *Spec) { s.DurationS = 1e10 },
		"duration NaN":           func(s *Spec) { s.DurationS = nan },
		"duration Inf":           func(s *Spec) { s.DurationS = inf },
		"total_rps NaN":          func(s *Spec) { s.TotalRPS = nan },
		"total_rps Inf":          func(s *Spec) { s.TotalRPS = inf },
		"rate_fraction NaN":      func(s *Spec) { s.Clients[0].RateFraction = nan },
		"rate_fraction Inf":      func(s *Spec) { s.Clients[0].RateFraction = inf },
		"upscale NaN": func(s *Spec) {
			s.Clients[0] = Client{Name: "a", TraceFile: "x.csv", Upscale: nan}
		},
		"ttft NaN": func(s *Spec) { s.SLOClasses = map[string]SLOClass{"x": {TTFTS: nan}} },
		"tbt Inf":  func(s *Spec) { s.SLOClasses = map[string]SLOClass{"x": {TBTMS: inf}} },
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("base spec: %v", err)
	}
	for label, mutate := range cases {
		s := valid()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", label)
		}
		if tr, err := s.Compile(); err == nil {
			t.Errorf("%s: Compile accepted (%d requests)", label, len(tr.Requests))
		}
	}
	// The JSON path: the largest duration a sim.Time holds passes, one
	// past it does not.
	for _, c := range []struct {
		dur string
		ok  bool
	}{{"1e9", true}, {"9223372036", true}, {"9223372037", false}, {"1e10", false}} {
		js := `{"duration_s": ` + c.dur + `, "total_rps": 1e-6, "clients": [{"name": "a", "rate_fraction": 1, "dataset": "burstgpt"}]}`
		if _, err := Parse(strings.NewReader(js)); (err == nil) != c.ok {
			t.Errorf("duration_s %s: Parse error %v, want ok %v", c.dur, err, c.ok)
		}
	}
}
