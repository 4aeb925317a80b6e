package arrival

import (
	"fmt"
	"math"
	"math/rand"

	"kunserve/internal/sim"
)

// Gamma is a renewal process with gamma-distributed inter-arrival times of
// mean 1/Rate and coefficient of variation CV. CV = 1 recovers Poisson;
// CV > 1 (the BurstGPT regime) clusters arrivals into bursts separated by
// long gaps at the same average rate, which is exactly the knob that
// separates tail latency from mean latency in serving experiments.
type Gamma struct {
	Rate float64 // requests per second
	CV   float64 // inter-arrival coefficient of variation

	// shape and scale cache the derived sampling parameters; zero means
	// derive from Rate/CV (covers literal-constructed values).
	shape, scale float64
}

// NewGamma validates and builds a gamma renewal process.
func NewGamma(rps, cv float64) (*Gamma, error) {
	if !positive(rps) {
		return nil, fmt.Errorf("arrival: gamma rate must be positive and finite, got %v", rps)
	}
	if !positive(cv) {
		return nil, fmt.Errorf("arrival: gamma cv must be positive and finite, got %v", cv)
	}
	return &Gamma{Rate: rps, CV: cv, shape: 1 / (cv * cv), scale: cv * cv / rps}, nil
}

// Name implements Process.
func (g *Gamma) Name() string { return "gamma" }

// Next implements Process. Shape k = 1/CV^2 and scale theta = CV^2/Rate give
// E[T] = 1/Rate and CV[T] = CV.
func (g *Gamma) Next(rng *rand.Rand, now sim.Time) (sim.Time, bool) {
	shape, scale := g.shape, g.scale
	if shape == 0 {
		shape = 1 / (g.CV * g.CV)
		scale = g.CV * g.CV / g.Rate
	}
	return now.Add(sim.DurationFromSeconds(sampleGamma(rng, shape) * scale)), true
}

// sampleGamma draws Gamma(shape, 1) via Marsaglia-Tsang squeeze sampling,
// with the standard U^(1/shape) boost for shape < 1 (CV > 1 lands there:
// CV = 3.5 means shape ~ 0.082).
func sampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return sampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Weibull is a renewal process with Weibull-distributed inter-arrivals of
// mean 1/Rate. Shape < 1 is heavy-tailed (bursty), shape = 1 is Poisson,
// and shape > 1 is more regular than Poisson.
type Weibull struct {
	Rate  float64 // requests per second
	Shape float64 // Weibull shape k

	// lambda caches the derived Weibull scale; zero means derive from
	// Rate/Shape (covers literal-constructed values), avoiding a
	// math.Gamma evaluation per arrival on the generation hot path.
	lambda float64
}

// NewWeibull validates and builds a Weibull renewal process.
func NewWeibull(rps, shape float64) (*Weibull, error) {
	if !positive(rps) {
		return nil, fmt.Errorf("arrival: weibull rate must be positive and finite, got %v", rps)
	}
	if !positive(shape) {
		return nil, fmt.Errorf("arrival: weibull shape must be positive and finite, got %v", shape)
	}
	return &Weibull{Rate: rps, Shape: shape, lambda: 1 / (rps * math.Gamma(1+1/shape))}, nil
}

// Name implements Process.
func (w *Weibull) Name() string { return "weibull" }

// Next implements Process. The scale lambda = 1/(Rate*Gamma(1+1/k)) makes
// the mean inter-arrival exactly 1/Rate; inversion sampling keeps one
// uniform draw per arrival.
func (w *Weibull) Next(rng *rand.Rand, now sim.Time) (sim.Time, bool) {
	lambda := w.lambda
	if lambda == 0 {
		lambda = 1 / (w.Rate * math.Gamma(1+1/w.Shape))
	}
	u := rng.Float64()
	gap := lambda * math.Pow(-math.Log(1-u), 1/w.Shape)
	return now.Add(sim.DurationFromSeconds(gap)), true
}
