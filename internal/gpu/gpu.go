// Package gpu models the GPUs of the paper's two testbeds (Table 2) and
// provides the ground-truth kernel-timing model the simulation uses as
// "actual" execution time. The timing model intentionally contains terms the
// paper's Eq. 1 cost model omits (per-request launch overhead, KV-read
// bandwidth for decode, a weight-load floor) so that fitting Eq. 1 against it
// is a genuine approximation, reproducing the Figure 15 accuracy experiment.
package gpu

import (
	"fmt"

	"kunserve/internal/model"
	"kunserve/internal/sim"
)

// Spec describes one GPU SKU.
type Spec struct {
	Name string
	// HBMBytes is the device memory capacity.
	HBMBytes int64
	// PeakFLOPS is dense BF16 throughput in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is HBM bandwidth in bytes/s.
	MemBandwidth float64
	// PCIeBandwidth is host link bandwidth in bytes/s (swap path).
	PCIeBandwidth float64
	// ComputeEff and MemEff derate peaks to achievable utilization.
	ComputeEff float64
	MemEff     float64
	// KernelLaunch is the fixed per-layer launch overhead.
	KernelLaunch sim.Duration
}

// A800 returns the Cluster A GPU (Table 2): A800 80 GB, PCIe Gen4 host link.
func A800() *Spec {
	return &Spec{
		Name:          "A800-80GB",
		HBMBytes:      80 * model.GiB,
		PeakFLOPS:     312e12,
		MemBandwidth:  1.935e12,
		PCIeBandwidth: 32e9,
		ComputeEff:    0.85,
		MemEff:        0.85,
		KernelLaunch:  4 * sim.Microsecond,
	}
}

// H800 returns the Cluster B GPU (Table 2): H800 80 GB with NVLink.
func H800() *Spec {
	return &Spec{
		Name:          "H800-80GB",
		HBMBytes:      80 * model.GiB,
		PeakFLOPS:     989e12,
		MemBandwidth:  3.35e12,
		PCIeBandwidth: 64e9,
		ComputeEff:    0.80,
		MemEff:        0.82,
		KernelLaunch:  4 * sim.Microsecond,
	}
}

// Validate reports nonsensical specs.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("gpu: empty name")
	case s.HBMBytes <= 0:
		return fmt.Errorf("gpu %s: HBMBytes = %d", s.Name, s.HBMBytes)
	case s.PeakFLOPS <= 0 || s.MemBandwidth <= 0 || s.PCIeBandwidth <= 0:
		return fmt.Errorf("gpu %s: non-positive throughput", s.Name)
	case s.ComputeEff <= 0 || s.ComputeEff > 1 || s.MemEff <= 0 || s.MemEff > 1:
		return fmt.Errorf("gpu %s: efficiency out of (0,1]", s.Name)
	}
	return nil
}

// ChunkWork describes one request-chunk inside a microbatch: ChunkLen new
// query tokens attending to PrefixLen already-cached tokens. A decode step is
// the special case ChunkLen == 1 with PrefixLen = context so far.
type ChunkWork struct {
	PrefixLen int
	ChunkLen  int
}

// Timer computes ground-truth execution durations for microbatches of a
// (possibly partial) model on a tensor-parallel group of identical GPUs.
type Timer struct {
	spec *Spec
	cfg  *model.Config
	// tpDegree is the number of GPUs sharing each layer's work; compute
	// and bandwidth scale with it (intra-server NVLink assumed fast
	// enough that TP overhead folds into the efficiency factors).
	tpDegree int

	// attnFactor (4*heads*headDim), layersF, and kvBytesF cache the
	// config-constant factors of the per-chunk cost terms so the
	// microbatch loop does no repeated int-to-float conversion. All are
	// exact small-integer products, so hoisting them is bit-identical to
	// recomputing per chunk.
	attnFactor float64
	layersF    float64
	kvBytesF   float64
	// flops, membw, linearPerToken, weightLoad and launch are Time's
	// per-microbatch constants. Computing them once is exact because
	// neither a Spec nor a model.Config changes after a timer is built
	// from it (Partial copies its config).
	flops, membw   float64
	linearPerToken float64
	weightLoad     float64
	launch         sim.Duration
}

// NewTimer builds a timer for cfg running on tpDegree GPUs of the given
// spec.
func NewTimer(spec *Spec, cfg *model.Config, tpDegree int) *Timer {
	if tpDegree <= 0 {
		panic(fmt.Sprintf("gpu: tpDegree = %d", tpDegree))
	}
	t := &Timer{
		spec: spec, cfg: cfg, tpDegree: tpDegree,
		attnFactor:     4 * float64(cfg.NumHeads) * float64(cfg.HeadDim),
		layersF:        float64(cfg.Layers),
		kvBytesF:       float64(cfg.KVBytesPerToken()),
		flops:          spec.PeakFLOPS * spec.ComputeEff * float64(tpDegree),
		membw:          spec.MemBandwidth * spec.MemEff * float64(tpDegree),
		linearPerToken: cfg.LinearFlopsPerToken(),
		launch:         sim.Duration(cfg.Layers) * spec.KernelLaunch,
	}
	t.weightLoad = float64(cfg.ParamBytes()) / t.membw
	return t
}

// Spec returns the underlying GPU spec.
func (t *Timer) Spec() *Spec { return t.spec }

// Config returns the model (or partial model) being timed.
func (t *Timer) Config() *model.Config { return t.cfg }

// DecodeSum is N decode steps priced as one aggregate term. Context is
// the sum of (context+1) over the steps: a decode step attends to its
// context plus itself and reads that many tokens' KV, so one sum carries
// both its attention and its KV-read terms.
type DecodeSum struct {
	N       int
	Context int
}

// exactBound is 2^53: below it float64 represents every integer exactly.
const exactBound = 1 << 53

// MicrobatchTime returns the ground-truth execution time of one microbatch.
//
// The model is roofline-style per component:
//   - linear layers: compute-bound in total new tokens, with a weight-load
//     floor (reading every parameter once per microbatch) that dominates at
//     small batch sizes — this is the λ amortization Eq. 3 captures;
//   - attention: compute for (prefix x chunk + chunk^2/2) scores plus
//     KV-read bandwidth for the prefix (dominant for decode);
//   - fixed per-layer kernel launches and a small per-chunk scheduling
//     overhead that Eq. 1 folds into γ.
func (t *Timer) MicrobatchTime(chunks []ChunkWork) sim.Duration {
	return t.Time(chunks, DecodeSum{})
}

// Time is MicrobatchTime for a microbatch of chunks plus dec, the decode
// steps priced as one aggregate term; both count as chunks. The result has
// the same bits as pricing each decode as its own ChunkWork: every term of
// the attention and KV-read sums is an integer (attnFactor, the layer
// count and the KV bytes per token are integers, and so are p·n +
// n(n+1)/2 and p+n), so while the sums stay below 2^53 every term and
// partial sum is exact and the order of addition cannot change the value.
// For decodes the terms are attnFactor·(ctx+1)·layers and kvBytes·(ctx+1),
// which sum to attnFactor·Σ(ctx+1)·layers and kvBytes·Σ(ctx+1). So any
// split of a microbatch's decodes between chunks and dec prices to the same
// bits. Time panics when a sum reaches 2^53.
func (t *Timer) Time(chunks []ChunkWork, dec DecodeSum) sim.Duration {
	n := len(chunks) + dec.N
	if n == 0 {
		return 0
	}
	overhead := t.launch + sim.Duration(n)*2*sim.Microsecond
	return sim.DurationFromSeconds(t.seconds(t.sums(chunks, dec))) + overhead
}

// seconds is the roofline part of Time for a microbatch's sums: the
// linear layers' compute or weight-load time plus the attention's compute
// or KV-read time.
func (t *Timer) seconds(totalNew int, attnFlops, kvReadBytes float64) float64 {
	linearFlops := t.linearPerToken * float64(totalNew)
	linearCompute := linearFlops / t.flops
	linear := linearCompute
	if t.weightLoad > linear {
		linear = t.weightLoad
	}

	attnCompute := attnFlops / t.flops
	kvRead := kvReadBytes / t.membw
	attn := attnCompute
	if kvRead > attn {
		attn = kvRead
	}
	return linear + attn
}

// sums returns a microbatch's new tokens and its attention-FLOP and
// KV-read-byte sums: the one pricing loop.
func (t *Timer) sums(chunks []ChunkWork, dec DecodeSum) (totalNew int, attnFlops, kvReadBytes float64) {
	totalNew = dec.N
	ctx := float64(dec.Context)
	attnFlops = t.attnFactor * ctx * t.layersF
	kvReadBytes = t.kvBytesF * ctx
	for _, c := range chunks {
		if c.ChunkLen <= 0 {
			panic(fmt.Sprintf("gpu: ChunkLen = %d", c.ChunkLen))
		}
		totalNew += c.ChunkLen
		// Inlined AttnFlopsForChunk with the config-constant factors
		// hoisted (same multiplication order, so bit-identical).
		p, n := float64(c.PrefixLen), float64(c.ChunkLen)
		attnFlops += t.attnFactor * (p*n + n*(n+1)/2) * t.layersF
		// The kernel streams the prefix KV (and the chunk's own KV)
		// once per chunk.
		kvReadBytes += t.kvBytesF * float64(c.PrefixLen+c.ChunkLen)
	}
	if attnFlops >= exactBound || kvReadBytes >= exactBound {
		// Every term is non-negative and rounding is monotone, so a sum
		// below 2^53 proves no term or partial sum was ever rounded.
		panic(fmt.Sprintf("gpu: %s microbatch sums (%g attention FLOPs, %g KV bytes) reach 2^53; pricing is no longer exact",
			t.cfg.Name, attnFlops, kvReadBytes))
	}
	return totalNew, attnFlops, kvReadBytes
}

// PrefillTime is a convenience for a single chunk with no batching.
func (t *Timer) PrefillTime(prefixLen, chunkLen int) sim.Duration {
	return t.MicrobatchTime([]ChunkWork{{PrefixLen: prefixLen, ChunkLen: chunkLen}})
}
