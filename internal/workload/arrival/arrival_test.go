package arrival

import (
	"math"
	"math/rand"
	"testing"

	"kunserve/internal/sim"
)

// collect gathers all arrivals in [0, until) from a fresh seeded RNG.
func collect(t *testing.T, p Process, seed int64, until sim.Time) []sim.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []sim.Time
	now := sim.Time(0)
	for {
		next, ok := p.Next(rng, now)
		if !ok || next >= until {
			return out
		}
		now = next
		out = append(out, next)
	}
}

// newProcesses builds one fresh instance of every process family at the
// given rate (fresh because MMPP carries state).
func newProcesses(t *testing.T, rate float64) map[string]Process {
	t.Helper()
	poisson, err := NewPoisson(rate)
	if err != nil {
		t.Fatal(err)
	}
	piecewise, err := NewPiecewise([]Segment{{Start: 0, RPS: rate}})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := NewGamma(rate, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	weibull, err := NewWeibull(rate, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := NewDiurnal(rate, 0.6, 120*sim.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err := NewMMPP([]MMPPState{
		{Rate: rate * 0.8, MeanSojourn: 40 * sim.Second},
		{Rate: rate * 1.2, MeanSojourn: 40 * sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Process{
		"poisson":   poisson,
		"piecewise": piecewise,
		"gamma":     gamma,
		"weibull":   weibull,
		"diurnal":   diurnal,
		"mmpp":      mmpp,
	}
}

// Every process family must hit its nominal mean rate. Diurnal and MMPP
// modulate the instantaneous rate but average back to the base over whole
// cycles / many sojourns; gamma and weibull are mean-1/rate renewals.
func TestEmpiricalMeanRate(t *testing.T) {
	const rate = 20.0
	dur := 1200 * sim.Second
	for name, p := range newProcesses(t, rate) {
		arrivals := collect(t, p, 1, sim.Time(dur))
		got := float64(len(arrivals)) / dur.Seconds()
		tol := 0.10
		if name == "gamma" || name == "mmpp" {
			// High-CV renewals and state modulation converge slower.
			tol = 0.20
		}
		if math.Abs(got-rate)/rate > tol {
			t.Errorf("%s: empirical rate %.2f, want %.1f within %.0f%%", name, got, rate, tol*100)
		}
	}
}

// The gamma process's inter-arrival CV must track the configured CV.
func TestGammaCVMatchesConfig(t *testing.T) {
	for _, cv := range []float64{0.5, 1.0, 3.5} {
		g, err := NewGamma(10, cv)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		const n = 60000
		var sum, sumSq float64
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			next, _ := g.Next(rng, now)
			gap := next.Sub(now).Seconds()
			sum += gap
			sumSq += gap * gap
			now = next
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		got := math.Sqrt(variance) / mean
		if math.Abs(got-cv)/cv > 0.10 {
			t.Errorf("cv=%.1f: empirical CV %.2f", cv, got)
		}
		if math.Abs(mean-0.1)/0.1 > 0.10 {
			t.Errorf("cv=%.1f: mean gap %.4f, want 0.100", cv, mean)
		}
	}
}

// Weibull shape < 1 must be burstier (higher CV) than shape > 1.
func TestWeibullShapeControlsBurstiness(t *testing.T) {
	cvOf := func(shape float64) float64 {
		w, err := NewWeibull(10, shape)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		const n = 40000
		var sum, sumSq float64
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			next, _ := w.Next(rng, now)
			gap := next.Sub(now).Seconds()
			sum += gap
			sumSq += gap * gap
			now = next
		}
		mean := sum / n
		return math.Sqrt(sumSq/n-mean*mean) / mean
	}
	heavy, regular := cvOf(0.5), cvOf(2.0)
	if heavy <= 1.2 {
		t.Errorf("shape 0.5 CV = %.2f, want > 1.2", heavy)
	}
	if regular >= 0.8 {
		t.Errorf("shape 2.0 CV = %.2f, want < 0.8", regular)
	}
}

// The diurnal process must actually modulate: the peak-phase window should
// see substantially more arrivals than the trough-phase window.
func TestDiurnalModulates(t *testing.T) {
	d, err := NewDiurnal(20, 0.8, 100*sim.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := collect(t, d, 5, sim.Time(1000*sim.Second))
	var peak, trough int
	for _, a := range arrivals {
		phase := math.Mod(a.Seconds(), 100)
		switch {
		case phase >= 10 && phase < 40: // sin > 0 region around the crest
			peak++
		case phase >= 60 && phase < 90: // sin < 0 region around the trough
			trough++
		}
	}
	if float64(peak) < 2*float64(trough) {
		t.Errorf("peak window %d arrivals vs trough %d, want >= 2x", peak, trough)
	}
}

// Same seed, fresh process => identical arrival sequence, for every family.
func TestSameSeedDeterminism(t *testing.T) {
	a := newProcesses(t, 15)
	b := newProcesses(t, 15)
	for name := range a {
		sa := collect(t, a[name], 9, sim.Time(300*sim.Second))
		sb := collect(t, b[name], 9, sim.Time(300*sim.Second))
		if len(sa) == 0 {
			t.Fatalf("%s: no arrivals", name)
		}
		if len(sa) != len(sb) {
			t.Fatalf("%s: same seed, different counts %d vs %d", name, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: arrival %d differs: %v vs %v", name, i, sa[i], sb[i])
			}
		}
	}
}

// Different seeds must not produce identical sequences.
func TestSeedsDiffer(t *testing.T) {
	p1, _ := NewPoisson(10)
	p2, _ := NewPoisson(10)
	sa := collect(t, p1, 1, sim.Time(60*sim.Second))
	sb := collect(t, p2, 2, sim.Time(60*sim.Second))
	if len(sa) == len(sb) {
		same := true
		for i := range sa {
			if sa[i] != sb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical arrivals")
		}
	}
}

// Zero-rate segments are skipped without consuming randomness, and a
// trailing zero-rate segment ends the sequence.
func TestPiecewiseZeroRateSegments(t *testing.T) {
	p, err := NewPiecewise([]Segment{
		{Start: 0, RPS: 0},
		{Start: sim.FromSeconds(10), RPS: 50},
		{Start: sim.FromSeconds(20), RPS: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := collect(t, p, 7, sim.FromSeconds(100))
	if len(arrivals) == 0 {
		t.Fatal("no arrivals in active window")
	}
	for _, a := range arrivals {
		if a.Seconds() < 10 || a.Seconds() >= 21 {
			t.Fatalf("arrival %v outside [10s, ~20s] active window", a)
		}
	}
	// Past the last arrival in the active window the process must report done.
	rng := rand.New(rand.NewSource(1))
	if _, ok := p.Next(rng, sim.FromSeconds(25)); ok {
		t.Error("arrival emitted after trailing zero-rate segment")
	}
}

func TestMMPPVisitsAllStates(t *testing.T) {
	m, err := NewMMPP([]MMPPState{
		{Rate: 5, MeanSojourn: 10 * sim.Second},
		{Rate: 50, MeanSojourn: 10 * sim.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := collect(t, m, 11, sim.Time(600*sim.Second))
	// With equal sojourns the average rate is ~27.5; seeing both regimes
	// means the count is far from either pure-state count.
	got := float64(len(arrivals)) / 600
	if got < 10 || got > 45 {
		t.Errorf("mmpp rate %.1f, want between state rates (5, 50)", got)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewPoisson(0); err == nil {
		t.Error("poisson rate 0 accepted")
	}
	if _, err := NewPiecewise(nil); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := NewPiecewise([]Segment{{Start: sim.Time(sim.Second), RPS: 1}, {Start: 0, RPS: 1}}); err == nil {
		t.Error("unsorted schedule accepted")
	}
	if _, err := NewGamma(10, 0); err == nil {
		t.Error("gamma cv 0 accepted")
	}
	if _, err := NewGamma(-1, 1); err == nil {
		t.Error("gamma negative rate accepted")
	}
	if _, err := NewWeibull(10, -2); err == nil {
		t.Error("weibull negative shape accepted")
	}
	if _, err := NewDiurnal(10, 1.5, sim.Second, 0); err == nil {
		t.Error("diurnal amplitude > 1 accepted")
	}
	if _, err := NewDiurnal(10, 0.5, 0, 0); err == nil {
		t.Error("diurnal zero period accepted")
	}
	if _, err := NewMMPP(nil); err == nil {
		t.Error("empty mmpp accepted")
	}
	if _, err := NewMMPP([]MMPPState{{Rate: 0, MeanSojourn: sim.Second}}); err == nil {
		t.Error("all-zero-rate mmpp accepted")
	}
	if _, err := NewMMPP([]MMPPState{{Rate: 1, MeanSojourn: 0}}); err == nil {
		t.Error("zero-sojourn mmpp accepted")
	}
}

// A NaN or infinite parameter passes a v <= 0 check, and generating at a
// NaN or infinite rate never ends: every constructor rejects non-finite
// parameters, and still accepts a finite valid one.
func TestConstructorsRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	build := map[string]func(v float64) error{
		"poisson rate": func(v float64) error { _, err := NewPoisson(v); return err },
		"gamma rate":   func(v float64) error { _, err := NewGamma(v, 1); return err },
		"gamma cv":     func(v float64) error { _, err := NewGamma(10, v); return err },
		"weibull rate": func(v float64) error { _, err := NewWeibull(v, 1); return err },
		"weibull shape": func(v float64) error {
			_, err := NewWeibull(10, v)
			return err
		},
		"diurnal base": func(v float64) error { _, err := NewDiurnal(v, 0.5, sim.Second, 0); return err },
		"diurnal amplitude": func(v float64) error {
			_, err := NewDiurnal(10, v/(1+v), sim.Second, 0)
			return err
		},
		"diurnal phase": func(v float64) error { _, err := NewDiurnal(10, 0.5, sim.Second, v); return err },
		"piecewise rate": func(v float64) error {
			_, err := NewPiecewise([]Segment{{RPS: v}})
			return err
		},
		"mmpp rate": func(v float64) error {
			_, err := NewMMPP([]MMPPState{{Rate: 1, MeanSojourn: sim.Second}, {Rate: v, MeanSojourn: sim.Second}})
			return err
		},
	}
	for name, f := range build {
		if err := f(2); err != nil {
			t.Errorf("%s 2 rejected: %v", name, err)
		}
		for _, v := range []float64{nan, inf, -inf} {
			if err := f(v); err == nil {
				t.Errorf("%s %v accepted", name, v)
			}
		}
	}
}
