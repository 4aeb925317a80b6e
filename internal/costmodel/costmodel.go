// Package costmodel implements the paper's microbatch execution-time model
// (§4.3, Eq. 1–3) and its offline least-squares fitting.
//
// The cost of one chunk of c new tokens over a prefix of p cached tokens is
//
//	cost(c) = α·(p·c + (c²+c)/2) + β·c + γ
//
// where the α term models the quadratic attention (prefix-attn + self-attn),
// β the per-token FFN work, and γ fixed overheads. A microbatch's cost is
// the sum over its chunks minus (|b|−1)·λ — requests in a batch share one
// pass over the model weights, so the weight-load component counts once.
//
// The package also provides the attention-blind token-count model used as
// the Figure 15 baseline (NanoFlow-style: cost = β·c + γ), and profiling
// helpers that generate fitting samples from the ground-truth gpu.Timer the
// way the real system profiles kernels offline before deployment.
package costmodel

import (
	"fmt"
	"math"

	"kunserve/internal/gpu"
)

// Model holds the fitted hyperparameters of Eq. 1–3, in seconds.
type Model struct {
	// Alpha scales the quadratic attention term p·c + (c²+c)/2.
	Alpha float64
	// Beta scales the linear FFN term.
	Beta float64
	// Gamma is the fixed per-chunk overhead.
	Gamma float64
	// Lambda is the per-extra-chunk weight-load elimination (Eq. 3).
	Lambda float64
}

// attnTerm is Eq. 1's quadratic feature.
func attnTerm(prefix, chunk int) float64 {
	p, c := float64(prefix), float64(chunk)
	return p*c + (c*c+c)/2
}

// ChunkSeconds evaluates Eq. 1 for one chunk.
func (m *Model) ChunkSeconds(prefix, chunk int) float64 {
	if chunk <= 0 {
		return 0
	}
	return m.Alpha*attnTerm(prefix, chunk) + m.Beta*float64(chunk) + m.Gamma
}

// BatchSeconds evaluates Eq. 2–3 for a microbatch.
func (m *Model) BatchSeconds(chunks []gpu.ChunkWork) float64 {
	if len(chunks) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, c := range chunks {
		if c.ChunkLen <= 0 {
			continue
		}
		sum += m.ChunkSeconds(c.PrefixLen, c.ChunkLen)
		n++
	}
	if n > 1 {
		sum -= float64(n-1) * m.Lambda
	}
	if sum < 0 {
		sum = 0
	}
	return sum
}

// Sample is one offline profiling observation: a microbatch and its measured
// execution time.
type Sample struct {
	Chunks  []gpu.ChunkWork
	Seconds float64
}

// Fit determines α, β, γ from single-chunk samples by least squares, then λ
// from multi-chunk samples (Eq. 3 residuals), mirroring the paper's offline
// profiling procedure.
func Fit(samples []Sample) (*Model, error) {
	return fit(samples, true)
}

// FitTokenCount fits the attention-blind baseline (α forced to zero): the
// token-count-proportional model of existing systems that Figure 15 shows
// deviating by up to 74%.
func FitTokenCount(samples []Sample) (*Model, error) {
	return fit(samples, false)
}

func fit(samples []Sample, withAttention bool) (*Model, error) {
	var x [][]float64
	var y []float64
	for _, s := range samples {
		if len(s.Chunks) != 1 {
			continue
		}
		c := s.Chunks[0]
		if withAttention {
			x = append(x, []float64{attnTerm(c.PrefixLen, c.ChunkLen), float64(c.ChunkLen), 1})
		} else {
			x = append(x, []float64{float64(c.ChunkLen), 1})
		}
		y = append(y, s.Seconds)
	}
	coef, err := solveLeastSquares(x, y)
	if err != nil {
		return nil, fmt.Errorf("fitting single-chunk samples: %w", err)
	}
	m := &Model{}
	if withAttention {
		m.Alpha, m.Beta, m.Gamma = coef[0], coef[1], coef[2]
	} else {
		m.Beta, m.Gamma = coef[0], coef[1]
	}

	// λ: how much cheaper a real batch is than the sum of its chunks.
	var lambdaSum float64
	var lambdaN int
	for _, s := range samples {
		if len(s.Chunks) < 2 {
			continue
		}
		var pred float64
		for _, c := range s.Chunks {
			pred += m.ChunkSeconds(c.PrefixLen, c.ChunkLen)
		}
		lambdaSum += (pred - s.Seconds) / float64(len(s.Chunks)-1)
		lambdaN++
	}
	if lambdaN > 0 {
		m.Lambda = lambdaSum / float64(lambdaN)
		if m.Lambda < 0 {
			m.Lambda = 0
		}
	}
	return m, nil
}

// ProfileSingle generates single-chunk samples over the cartesian grid of
// prefix and chunk lengths using the ground-truth timer.
func ProfileSingle(t *gpu.Timer, prefixes, chunks []int) []Sample {
	var out []Sample
	for _, p := range prefixes {
		for _, c := range chunks {
			if c <= 0 {
				continue
			}
			w := []gpu.ChunkWork{{PrefixLen: p, ChunkLen: c}}
			out = append(out, Sample{
				Chunks:  w,
				Seconds: t.MicrobatchTime(w).Seconds(),
			})
		}
	}
	return out
}

// ProfileBatches generates multi-chunk samples (for λ) with batch sizes and
// per-chunk lengths drawn deterministically from the provided lists.
func ProfileBatches(t *gpu.Timer, batchSizes []int, chunkLen int) []Sample {
	var out []Sample
	for _, bs := range batchSizes {
		if bs < 2 {
			continue
		}
		w := make([]gpu.ChunkWork, bs)
		for i := range w {
			// Stagger prefixes so the samples aren't degenerate.
			w[i] = gpu.ChunkWork{PrefixLen: (i % 4) * chunkLen, ChunkLen: chunkLen}
		}
		out = append(out, Sample{Chunks: w, Seconds: t.MicrobatchTime(w).Seconds()})
	}
	return out
}

// ProfileGrid profiles a ground-truth timer over the offline grid: a
// prefill grid of prefix x chunk lengths for α/β/γ plus batched samples
// for λ. FitFromTimer, Figure 15 and cmd/costfit all fit these samples.
func ProfileGrid(t *gpu.Timer) []Sample {
	prefixes := []int{0, 512, 1024, 2048, 4096, 8192}
	chunks := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	samples := ProfileSingle(t, prefixes, chunks)
	return append(samples, ProfileBatches(t, []int{2, 4, 8, 16, 32}, 512)...)
}

// FitFromTimer runs the full offline procedure against a ground-truth
// timer: Fit over ProfileGrid. This is what the system does at deployment
// time before serving (§4.3).
func FitFromTimer(t *gpu.Timer) (*Model, error) { return Fit(ProfileGrid(t)) }

// Deviation returns |predicted−actual|/actual for one sample.
func (m *Model) Deviation(s Sample) float64 {
	if s.Seconds == 0 {
		return 0
	}
	return math.Abs(m.BatchSeconds(s.Chunks)-s.Seconds) / s.Seconds
}

// MeanDeviation returns the average relative deviation over samples.
func MeanDeviation(m *Model, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += m.Deviation(s)
	}
	return sum / float64(len(samples))
}

// MaxDeviation returns the worst relative deviation over samples.
func MaxDeviation(m *Model, samples []Sample) float64 {
	var max float64
	for _, s := range samples {
		if d := m.Deviation(s); d > max {
			max = d
		}
	}
	return max
}
