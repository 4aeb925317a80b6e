package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"kunserve/internal/sim"
	"kunserve/internal/workload/arrival"
)

func TestLengthDistMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := LengthDist{Mean: 642, Sigma: 0.9, Min: 16, Max: 8192}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	got := sum / n
	if math.Abs(got-642) > 80 {
		t.Errorf("sample mean = %.0f, want ~642", got)
	}
}

func TestLengthDistClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := LengthDist{Mean: 1660, Sigma: 0.8, Min: 32, Max: 4096}
	for i := 0; i < 5000; i++ {
		v := d.Sample(rng)
		if v < 32 || v > 4096 {
			t.Fatalf("sample %d out of [32,4096]", v)
		}
	}
}

func TestDatasetsMatchPaperStats(t *testing.T) {
	// §5.1 reports the average input/output lengths per dataset.
	cases := []struct {
		ds              Dataset
		wantIn, wantOut float64
		tol             float64
	}{
		{BurstGPTDataset(), 642, 262, 0.15},
		{ShareGPTDataset(), 1660, 373, 0.15},
		{LongBenchDataset(), 5900, 499, 0.15},
	}
	for _, c := range cases {
		tr := Generate(7, 600*sim.Second, SteadySchedule(5), c.ds)
		in, out := tr.MeanLens()
		if math.Abs(in-c.wantIn)/c.wantIn > c.tol {
			t.Errorf("%s: mean input %.0f, want ~%.0f", c.ds.Name, in, c.wantIn)
		}
		if math.Abs(out-c.wantOut)/c.wantOut > c.tol {
			t.Errorf("%s: mean output %.0f, want ~%.0f", c.ds.Name, out, c.wantOut)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	for _, name := range []string{"burstgpt", "sharegpt", "longbench"} {
		ds, err := DatasetByName(name)
		if err != nil || ds.Name != name {
			t.Errorf("DatasetByName(%q) = %v, %v", name, ds.Name, err)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 100*sim.Second, BurstSchedule(3), BurstGPTDataset())
	b := Generate(42, 100*sim.Second, BurstSchedule(3), BurstGPTDataset())
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	c := Generate(43, 100*sim.Second, BurstSchedule(3), BurstGPTDataset())
	if len(a.Requests) == len(c.Requests) {
		same := true
		for i := range a.Requests {
			if a.Requests[i] != c.Requests[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateArrivalsSortedAndBounded(t *testing.T) {
	tr := Generate(1, 128*sim.Second, BurstSchedule(5), BurstGPTDataset())
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	prev := sim.Time(-1)
	for _, r := range tr.Requests {
		if r.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		if r.Arrival >= sim.FromSeconds(128) {
			t.Fatal("arrival beyond duration")
		}
		if r.InputLen <= 0 || r.OutputLen <= 0 {
			t.Fatal("non-positive lengths")
		}
		prev = r.Arrival
	}
}

// Figure 2(a): the burst roughly doubles the arrival rate at 45 s.
func TestBurstScheduleDoublesRate(t *testing.T) {
	tr := Generate(9, 75*sim.Second, BurstSchedule(10), BurstGPTDataset())
	var before, after int
	for _, r := range tr.Requests {
		if r.Arrival < sim.FromSeconds(45) {
			before++
		} else {
			after++
		}
	}
	rBefore := float64(before) / 45
	rAfter := float64(after) / 30
	if ratio := rAfter / rBefore; ratio < 1.6 || ratio > 2.6 {
		t.Errorf("burst ratio = %.2f, want ~2.1", ratio)
	}
}

func TestLongRunScheduleHasTwoWaves(t *testing.T) {
	tr := Generate(5, 640*sim.Second, LongRunSchedule(8), BurstGPTDataset())
	series := tr.RPSSeries(10 * sim.Second)
	base := series[2]
	wave1 := series[10] // t ~ 100s
	wave2 := series[46] // t ~ 460s
	if wave1 < 1.5*base {
		t.Errorf("first wave %.1f not elevated over base %.1f", wave1, base)
	}
	if wave2 < 1.5*base {
		t.Errorf("second wave %.1f not elevated over base %.1f", wave2, base)
	}
}

func TestUpscalePreservesPatternAndScalesRate(t *testing.T) {
	base := Generate(3, 100*sim.Second, BurstSchedule(4), BurstGPTDataset())
	up := Upscale(base, 2.5, 11)
	ratio := float64(len(up.Requests)) / float64(len(base.Requests))
	if ratio < 2.3 || ratio > 2.7 {
		t.Errorf("upscale count ratio = %.2f, want ~2.5", ratio)
	}
	// Temporal pattern preserved: burst window still ~2x denser.
	var before, after int
	for _, r := range up.Requests {
		if r.Arrival < sim.FromSeconds(45) {
			before++
		} else if r.Arrival < sim.FromSeconds(75) {
			after++
		}
	}
	rBefore := float64(before) / 45
	rAfter := float64(after) / 30
	if ratio := rAfter / rBefore; ratio < 1.5 || ratio > 2.8 {
		t.Errorf("upscaled burst ratio = %.2f, want ~2.1", ratio)
	}
	// Sorted with dense IDs.
	for i, r := range up.Requests {
		if r.ID != i {
			t.Fatal("IDs not dense after upscale")
		}
		if i > 0 && r.Arrival < up.Requests[i-1].Arrival {
			t.Fatal("not sorted after upscale")
		}
	}
}

func TestUpscaleBadFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("factor 0 did not panic")
		}
	}()
	Upscale(&Trace{}, 0, 1)
}

func TestRepeatBurstExtendsBurst(t *testing.T) {
	base := Generate(3, 100*sim.Second, BurstSchedule(5), LongBenchDataset())
	ext := RepeatBurst(base, sim.FromSeconds(45), sim.FromSeconds(75), 3)
	if ext.Duration() <= base.Duration() {
		t.Error("replay did not extend the trace")
	}
	// The replayed windows must have roughly the burst-window density.
	var burstCount int
	for _, r := range base.Requests {
		if r.Arrival >= sim.FromSeconds(45) && r.Arrival < sim.FromSeconds(75) {
			burstCount++
		}
	}
	var replayCount int
	for _, r := range ext.Requests {
		if r.Arrival >= sim.FromSeconds(75) && r.Arrival < sim.FromSeconds(105) {
			replayCount++
		}
	}
	if replayCount < burstCount*9/10 {
		t.Errorf("replay window has %d requests, burst had %d", replayCount, burstCount)
	}
}

func TestRepeatBurstBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted window did not panic")
		}
	}()
	RepeatBurst(&Trace{}, sim.FromSeconds(10), sim.FromSeconds(5), 1)
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(4, 50*sim.Second, SteadySchedule(3), ShareGPTDataset())
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("sharegpt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Fatalf("round trip lost requests: %d vs %d", len(back.Requests), len(tr.Requests))
	}
	for i := range tr.Requests {
		a, b := tr.Requests[i], back.Requests[i]
		if a.ID != b.ID || a.InputLen != b.InputLen || a.OutputLen != b.OutputLen {
			t.Fatalf("request %d differs: %+v vs %+v", i, a, b)
		}
		if d := a.Arrival.Sub(b.Arrival); d > sim.Microsecond || d < -sim.Microsecond {
			t.Fatalf("request %d arrival drift %v", i, d)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	const h4 = "id,arrival_s,input_tokens,output_tokens\n"
	const h7 = "id,arrival_s,input_tokens,output_tokens,client,slo_class,shared_prefix\n"
	cases := []struct {
		name, csv, row string // row: the row the error must name ("" = any)
	}{
		{"empty CSV", "", ""},
		{"bad id", "id,a,b,c\nnope,1,2,3\n", "row 1"},
		{"wrong field count", "id,a,b\n1,2,3\n", ""},
		{"NaN arrival", h4 + "0,1,2,3\n1,NaN,2,3\n", "row 2"},
		{"infinite arrival", h4 + "0,+Inf,2,3\n", "row 1"},
		{"huge arrival", h4 + "0,1,2,3\n1,1e300,2,3\n", "row 2"},
		{"arrival past sim.Time", h4 + "0,9223372037,2,3\n", "row 1"},
		{"negative arrival", h4 + "0,1,2,3\n1,2,2,3\n2,-0.5,2,3\n", "row 3"},
		{"zero input", h4 + "0,1,0,3\n", "row 1"},
		{"zero output", h4 + "0,1,2,3\n1,1,2,0\n", "row 2"},
		{"negative input", h4 + "0,1,-4,3\n", "row 1"},
		{"negative shared prefix", h7 + "0,1,2,3,a,b,-1\n", "row 1"},
		{"carriage return in client", ",,,,,\n0,0,1,1,\"0\r\r\n\",\n", "row 1"},
		{"line feed in slo_class", h7 + "0,1,2,3,a,b,1\n1,1,2,3,a,\"b\nc\",1\n", "row 2"},
	}
	for _, c := range cases {
		_, err := ReadCSV("x", strings.NewReader(c.csv))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.row) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.row)
		}
	}
	// The largest accepted arrival still fits in a sim.Time.
	tr, err := ReadCSV("x", strings.NewReader(h4+"0,9223372036,2,3\n"))
	if err != nil {
		t.Fatalf("latest representable arrival rejected: %v", err)
	}
	if got := tr.Requests[0].Arrival; got <= 0 {
		t.Fatalf("latest arrival overflowed to %v", got)
	}
}

func TestEmptyTraceHelpers(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 || tr.AvgRPS() != 0 {
		t.Error("empty trace stats")
	}
	if tr.RPSSeries(sim.Second) != nil {
		t.Error("empty trace series")
	}
	in, out := tr.MeanLens()
	if in != 0 || out != 0 {
		t.Error("empty trace lens")
	}
}

func TestEmptySchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty schedule did not panic")
		}
	}()
	Generate(1, sim.Second, nil, BurstGPTDataset())
}

func TestRPSSeriesZeroWindow(t *testing.T) {
	tr := Generate(4, 20*sim.Second, SteadySchedule(5), BurstGPTDataset())
	if s := tr.RPSSeries(0); s != nil {
		t.Errorf("zero window returned %d bins, want empty", len(s))
	}
	if s := tr.RPSSeries(-sim.Second); s != nil {
		t.Errorf("negative window returned %d bins, want empty", len(s))
	}
}

// Generate must be exactly GenerateProcess over a piecewise Poisson —
// the arrival-layer refactor may not change any trace.
func TestGenerateMatchesGenerateProcess(t *testing.T) {
	sched := BurstSchedule(6)
	a := Generate(42, 128*sim.Second, sched, ShareGPTDataset())
	b := GenerateProcess(42, 128*sim.Second, &arrival.Piecewise{Segments: sched}, ShareGPTDataset())
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestGenerateProcessNonPoisson(t *testing.T) {
	g, err := arrival.NewGamma(8, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	tr := GenerateProcess(3, 300*sim.Second, g, BurstGPTDataset())
	if got := tr.AvgRPS(); math.Abs(got-8)/8 > 0.25 {
		t.Errorf("gamma trace rate %.1f, want ~8", got)
	}
	a := GenerateProcess(3, 60*sim.Second, mustGamma(t, 8, 2.5), BurstGPTDataset())
	b := GenerateProcess(3, 60*sim.Second, mustGamma(t, 8, 2.5), BurstGPTDataset())
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same seed, different gamma traces")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func mustGamma(t *testing.T, rate, cv float64) arrival.Process {
	t.Helper()
	g, err := arrival.NewGamma(rate, cv)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMergeOrdersAndRenumbers(t *testing.T) {
	a := Generate(1, 30*sim.Second, SteadySchedule(4), BurstGPTDataset())
	b := Generate(2, 30*sim.Second, SteadySchedule(6), ShareGPTDataset())
	for i := range a.Requests {
		a.Requests[i].Client = "a"
	}
	for i := range b.Requests {
		b.Requests[i].Client = "b"
	}
	m := Merge("mix", a, b)
	if len(m.Requests) != len(a.Requests)+len(b.Requests) {
		t.Fatal("merge lost requests")
	}
	var sawA, sawB int
	for i, r := range m.Requests {
		if r.ID != i {
			t.Fatal("IDs not dense after merge")
		}
		if i > 0 && r.Arrival < m.Requests[i-1].Arrival {
			t.Fatal("not sorted after merge")
		}
		switch r.Client {
		case "a":
			sawA++
		case "b":
			sawB++
		default:
			t.Fatalf("request %d lost its client tag", i)
		}
	}
	if sawA != len(a.Requests) || sawB != len(b.Requests) {
		t.Fatal("client tags miscounted after merge")
	}
}

func TestTaggedCSVRoundTrip(t *testing.T) {
	tr := Generate(4, 30*sim.Second, SteadySchedule(3), ShareGPTDataset())
	for i := range tr.Requests {
		tr.Requests[i].Client = "interactive"
		tr.Requests[i].Class = "strict"
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "slo_class") {
		t.Fatal("tagged trace did not emit extended header")
	}
	back, err := ReadCSV("mix", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests {
		a, b := tr.Requests[i], back.Requests[i]
		if a.Client != b.Client || a.Class != b.Class {
			t.Fatalf("request %d tags lost: %+v vs %+v", i, a, b)
		}
	}
	// Untagged traces must keep the legacy 4-column layout.
	var legacy bytes.Buffer
	plain := Generate(4, 10*sim.Second, SteadySchedule(3), ShareGPTDataset())
	if err := plain.WriteCSV(&legacy); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(legacy.String(), "\n", 2)[0], "client") {
		t.Fatal("untagged trace emitted extended header")
	}
}

// Property: upscaling by any factor >= 1 never reduces request count and
// keeps the trace sorted.
func TestPropertyUpscale(t *testing.T) {
	base := Generate(6, 30*sim.Second, SteadySchedule(4), BurstGPTDataset())
	f := func(raw uint8, seed int64) bool {
		factor := 1 + float64(raw)/64
		up := Upscale(base, factor, seed)
		if len(up.Requests) < len(base.Requests) {
			return false
		}
		for i := 1; i < len(up.Requests); i++ {
			if up.Requests[i].Arrival < up.Requests[i-1].Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated request respects its dataset's clamps.
func TestPropertyGeneratedLengthsInBounds(t *testing.T) {
	f := func(seed int64) bool {
		ds := LongBenchDataset()
		tr := Generate(seed, 20*sim.Second, SteadySchedule(10), ds)
		for _, r := range tr.Requests {
			if r.InputLen < ds.Input.Min || r.InputLen > ds.Input.Max {
				return false
			}
			if r.OutputLen < ds.Output.Min || r.OutputLen > ds.Output.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// DurationSeconds accepts exactly the durations a sim.Time can hold.
func TestDurationSeconds(t *testing.T) {
	for _, c := range []struct {
		s  float64
		ok bool
	}{
		{128, true},
		{MaxArrivalSeconds, true},
		{1e-9, true},
		{0, false},
		{-1, false},
		{1e10, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		d, err := DurationSeconds(c.s)
		if (err == nil) != c.ok {
			t.Errorf("DurationSeconds(%v): %v, %v; want ok %v", c.s, d, err, c.ok)
		}
		if err == nil && d <= 0 {
			t.Errorf("DurationSeconds(%v) = %v", c.s, d)
		}
	}
}
