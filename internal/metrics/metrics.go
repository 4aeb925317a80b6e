// Package metrics collects the serving metrics the paper's evaluation
// reports: TTFT and TPOT distributions (P50/P90/P99/P999), mean-latency and
// throughput time series (Figure 12/16 panels), and per-class SLO
// attainment. The derived figures live with their inputs: SLO-violation
// ratios under scale factors (Figure 13) in experiments.Figure13From, which
// also counts unserved requests, and GPU bubble ratios (Figure 14) in
// pipeline.Engine.BubbleRatio.
package metrics

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"

	"kunserve/internal/sim"
)

// Dist is an online collection of latency samples in seconds.
//
// The zero value stores every sample exactly. NewReservoirDist builds the
// opt-in bounded-memory variant: a fixed-capacity uniform reservoir
// (Vitter's Algorithm R) whose percentiles approximate the full stream
// while Mean and Count stay exact (running sum / counter). The reservoir
// is seed-deterministic — same seed, same sample order, same contents.
type Dist struct {
	samples []float64
	sorted  bool

	// Reservoir state; rcap == 0 selects the exact default.
	rcap int
	seen int64
	sum  float64
	rng  *rand.Rand
}

// NewReservoirDist creates a reservoir-mode distribution keeping at most
// capacity samples, with all replacement randomness derived from seed.
func NewReservoirDist(capacity int, seed int64) *Dist {
	if capacity <= 0 {
		panic(fmt.Sprintf("metrics: reservoir capacity %d", capacity))
	}
	return &Dist{
		samples: make([]float64, 0, capacity),
		rcap:    capacity,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Add records one sample.
func (d *Dist) Add(v float64) {
	if d.rcap > 0 {
		d.seen++
		d.sum += v
		if len(d.samples) < d.rcap {
			d.samples = append(d.samples, v)
			d.sorted = false
			return
		}
		// Algorithm R: the i-th sample replaces a uniformly random slot
		// with probability rcap/i, keeping the reservoir a uniform sample
		// of everything seen.
		if j := d.rng.Int63n(d.seen); j < int64(d.rcap) {
			d.samples[j] = v
			d.sorted = false
		}
		return
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count returns the number of samples observed (exact in both modes).
func (d *Dist) Count() int {
	if d.rcap > 0 {
		return int(d.seen)
	}
	return len(d.samples)
}

// Retained returns how many samples are held in memory: Count() in the
// exact default, at most the capacity in reservoir mode.
func (d *Dist) Retained() int { return len(d.samples) }

// Mean returns the arithmetic mean, or 0 with no samples. Exact in both
// modes: the reservoir keeps a running sum over the full stream.
func (d *Dist) Mean() float64 {
	if d.rcap > 0 {
		if d.seen == 0 {
			return 0
		}
		return d.sum / float64(d.seen)
	}
	if len(d.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.samples {
		sum += v
	}
	return sum / float64(len(d.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest-rank, or
// 0 with no samples.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	if p <= 0 {
		return d.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.samples) {
		rank = len(d.samples)
	}
	return d.samples[rank-1]
}

// Max returns the largest sample.
func (d *Dist) Max() float64 { return d.Percentile(100) }

// Series accumulates values into fixed-width time windows.
type Series struct {
	window sim.Duration
	sums   []float64
	counts []int64
	// last is the bin Observe last touched and [lo, hi) its time span, so
	// an observation in the same window costs no division.
	last   int
	lo, hi sim.Time
}

// NewSeries creates a series with the given bin width.
func NewSeries(window sim.Duration) *Series {
	if window <= 0 {
		panic(fmt.Sprintf("metrics: window %v", window))
	}
	return &Series{window: window}
}

// Window returns the bin width.
func (s *Series) Window() sim.Duration { return s.window }

func (s *Series) grow(bin int) {
	for len(s.sums) <= bin {
		s.sums = append(s.sums, 0)
		s.counts = append(s.counts, 0)
	}
}

// Observe adds v to the bin containing t.
func (s *Series) Observe(t sim.Time, v float64) {
	if t < 0 {
		panic("metrics: negative time")
	}
	if t < s.lo || t >= s.hi {
		s.last = int(sim.Duration(t) / s.window)
		s.lo = sim.Time(s.last) * sim.Time(s.window)
		s.hi = s.lo.Add(s.window)
		s.grow(s.last)
	}
	s.sums[s.last] += v
	s.counts[s.last]++
}

// Bins returns the number of bins touched.
func (s *Series) Bins() int { return len(s.sums) }

// Sum returns the per-bin sums.
func (s *Series) Sum() []float64 {
	out := make([]float64, len(s.sums))
	copy(out, s.sums)
	return out
}

// MeanPerBin returns per-bin averages (0 for empty bins).
func (s *Series) MeanPerBin() []float64 {
	out := make([]float64, len(s.sums))
	for i := range s.sums {
		if s.counts[i] > 0 {
			out[i] = s.sums[i] / float64(s.counts[i])
		}
	}
	return out
}

// RatePerSecond returns per-bin sums divided by the bin width in seconds
// (e.g., tokens/s throughput when Observe records token counts).
func (s *Series) RatePerSecond() []float64 {
	w := s.window.Seconds()
	out := make([]float64, len(s.sums))
	for i := range s.sums {
		out[i] = s.sums[i] / w
	}
	return out
}

// MaxSeries tracks the maximum observation per window (memory demand
// panels use this).
type MaxSeries struct {
	window sim.Duration
	maxes  []float64
}

// NewMaxSeries creates a max-series with the given bin width.
func NewMaxSeries(window sim.Duration) *MaxSeries {
	if window <= 0 {
		panic(fmt.Sprintf("metrics: window %v", window))
	}
	return &MaxSeries{window: window}
}

// Observe records v at t, keeping the per-bin maximum.
func (m *MaxSeries) Observe(t sim.Time, v float64) {
	if t < 0 {
		panic("metrics: negative time")
	}
	bin := int(sim.Duration(t) / m.window)
	for len(m.maxes) <= bin {
		m.maxes = append(m.maxes, 0)
	}
	if v > m.maxes[bin] {
		m.maxes[bin] = v
	}
}

// Values returns the per-bin maxima.
func (m *MaxSeries) Values() []float64 {
	out := make([]float64, len(m.maxes))
	copy(out, m.maxes)
	return out
}

// RequestRecord is one finished request's latency outcome. Client and
// Class carry the workload tags (empty for untagged traces); Class keys
// the per-class breakdowns.
type RequestRecord struct {
	ID           int
	Arrival      sim.Time
	FirstToken   sim.Time
	Completed    sim.Time
	OutputTokens int
	Client       string
	Class        string
}

// TTFT returns time-to-first-token in seconds.
func (r RequestRecord) TTFT() float64 { return r.FirstToken.Sub(r.Arrival).Seconds() }

// TPOT returns mean time-per-output-token in seconds (0 for single-token
// outputs).
func (r RequestRecord) TPOT() float64 {
	if r.OutputTokens <= 1 {
		return 0
	}
	return r.Completed.Sub(r.FirstToken).Seconds() / float64(r.OutputTokens-1)
}

// Collector aggregates one serving run.
type Collector struct {
	TTFT     Dist
	TPOT     Dist
	Records  []RequestRecord
	MeanTTFT *Series    // mean TTFT per window (Fig. 12 col 2)
	Tokens   *Series    // emitted tokens per window (Fig. 12 col 3)
	KVDemand *MaxSeries // peak KV memory demand bytes (Fig. 12 col 1)

	// ClassTTFT/ClassTPOT break the latency distributions down by SLO
	// class. Only requests with a non-empty Class are tracked, so
	// untagged runs carry no per-class state at all.
	ClassTTFT map[string]*Dist
	ClassTPOT map[string]*Dist

	// PrefillTokens counts prompt tokens committed at admission (including
	// recompute re-prefills); CachedPrefillTokens counts the subset served
	// from the KVCache prefix cache instead of computed. Their ratio is
	// the run's prefix-cache hit rate.
	PrefillTokens       int64
	CachedPrefillTokens int64

	// StageWaits breaks disaggregated serving into per-stage waiting-time
	// distributions (prefill queue delay, KV handoff transfer time, decode
	// queue delay). Nil until the first observation, so collocated runs
	// carry no stage state at all.
	StageWaits map[string]*Dist

	// Bounded-memory mode (Bound): rcap > 0 turns every latency Dist into
	// a capacity-capped reservoir and stops retaining Records.
	rcap int
	seed int64
	// targets are the per-class SLO targets given at construction;
	// classAttained counts finished requests per class that met every
	// declared target (exact in both modes — updated per finish, not
	// sampled).
	targets       map[string]SLOTarget
	classAttained map[string]int
}

// SLOTarget is one SLO class's latency targets in seconds (0 = none
// declared). It mirrors the scheduler's class targets without importing the
// scheduling layer.
type SLOTarget struct {
	TTFT float64
	TBT  float64
}

// Disaggregation stage labels for ObserveStageWait.
const (
	// StagePrefillQueue is a request's wait from arrival to admission
	// into a prefill-role group.
	StagePrefillQueue = "prefill_queue"
	// StageHandoffPending is the wait from prefill completion to the KV
	// transfer starting — zero when a decode group fits immediately, the
	// decode pool's back-pressure when none does.
	StageHandoffPending = "handoff_pending"
	// StageKVTransfer is the KV handoff's wire time from a prefill group
	// to its decode destination.
	StageKVTransfer = "kv_transfer"
	// StageDecodeQueue is the wait from handoff completion to the first
	// decode advance on the destination group.
	StageDecodeQueue = "decode_queue"
)

// NewCollector creates a collector with the given time-series window that
// counts per-class SLO attainment against targets (nil for none).
func NewCollector(window sim.Duration, targets map[string]SLOTarget) *Collector {
	return &Collector{
		MeanTTFT: NewSeries(window),
		Tokens:   NewSeries(window),
		KVDemand: NewMaxSeries(window),
		targets:  targets,
	}
}

// Bound switches the collector to bounded-memory mode before any
// observation: latency distributions become capacity-capped reservoirs
// (seed-deterministic; per-class reservoirs derive their seeds from the
// class name so map iteration order cannot matter) and per-request Records
// are not retained. Mean, Count, and attainment stay exact; percentiles
// become reservoir approximations. Calling Bound after observations have
// been recorded panics — mixing exact and sampled state would silently skew
// percentiles.
func (c *Collector) Bound(capacity int, seed int64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("metrics: reservoir capacity %d", capacity))
	}
	if c.TTFT.Count() > 0 || c.TPOT.Count() > 0 || len(c.Records) > 0 {
		panic("metrics: Bound after observations")
	}
	c.rcap = capacity
	c.seed = seed
	c.TTFT = *NewReservoirDist(capacity, seed)
	c.TPOT = *NewReservoirDist(capacity, seed+1)
}

// Reserve sizes the exact collector's Records, TTFT and TPOT for n finished
// requests, so a run that knows its request count never regrows them. A
// bounded collector keeps its fixed reservoirs and retains no Records, so
// Reserve leaves it unchanged.
func (c *Collector) Reserve(n int) {
	if c.rcap > 0 {
		return
	}
	c.Records = slices.Grow(c.Records, max(n-len(c.Records), 0))
	c.TTFT.samples = slices.Grow(c.TTFT.samples, max(n-len(c.TTFT.samples), 0))
	c.TPOT.samples = slices.Grow(c.TPOT.samples, max(n-len(c.TPOT.samples), 0))
}

// ClassAttained returns the exact number of finished requests in the class
// that met every declared SLO target.
func (c *Collector) ClassAttained(class string) int { return c.classAttained[class] }

// newDist builds one named latency distribution in the collector's mode:
// exact by default, a reservoir with a name-derived seed when bounded.
func (c *Collector) newDist(name string) *Dist {
	if c.rcap == 0 {
		return &Dist{}
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return NewReservoirDist(c.rcap, c.seed^int64(h.Sum64()))
}

// Finish records a completed request.
func (c *Collector) Finish(r RequestRecord) {
	if c.rcap == 0 {
		c.Records = append(c.Records, r)
	}
	c.TTFT.Add(r.TTFT())
	if r.OutputTokens > 1 {
		c.TPOT.Add(r.TPOT())
	}
	c.MeanTTFT.Observe(r.FirstToken, r.TTFT())
	if r.Class != "" {
		if c.ClassTTFT == nil {
			c.ClassTTFT = map[string]*Dist{}
			c.ClassTPOT = map[string]*Dist{}
			c.classAttained = map[string]int{}
		}
		d := c.ClassTTFT[r.Class]
		if d == nil {
			d = c.newDist("ttft/" + r.Class)
			c.ClassTTFT[r.Class] = d
			c.ClassTPOT[r.Class] = c.newDist("tpot/" + r.Class)
		}
		d.Add(r.TTFT())
		if r.OutputTokens > 1 {
			c.ClassTPOT[r.Class].Add(r.TPOT())
		}
		tgt := c.targets[r.Class]
		if (tgt.TTFT <= 0 || r.TTFT() <= tgt.TTFT) &&
			(tgt.TBT <= 0 || r.OutputTokens <= 1 || r.TPOT() <= tgt.TBT) {
			c.classAttained[r.Class]++
		}
	}
}

// ClassNames returns the SLO classes seen among finished requests, sorted.
func (c *Collector) ClassNames() []string {
	out := make([]string, 0, len(c.ClassTTFT))
	for name := range c.ClassTTFT {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ObservePrefill records one admission's prefill commitment: total prompt
// tokens to materialize and the part served from the prefix cache.
func (c *Collector) ObservePrefill(cached, total int) {
	c.PrefillTokens += int64(total)
	c.CachedPrefillTokens += int64(cached)
}

// PrefixHitRate returns the fraction of committed prefill tokens served
// from the prefix cache (0 with no prefill).
func (c *Collector) PrefixHitRate() float64 {
	if c.PrefillTokens == 0 {
		return 0
	}
	return float64(c.CachedPrefillTokens) / float64(c.PrefillTokens)
}

// ObserveStageWait records one stage-level wait (seconds) under the given
// stage label (see the Stage* constants).
func (c *Collector) ObserveStageWait(stage string, seconds float64) {
	if c.StageWaits == nil {
		c.StageWaits = map[string]*Dist{}
	}
	d := c.StageWaits[stage]
	if d == nil {
		d = c.newDist("stage/" + stage)
		c.StageWaits[stage] = d
	}
	d.Add(seconds)
}

// StageNames returns the observed stage labels, sorted.
func (c *Collector) StageNames() []string {
	out := make([]string, 0, len(c.StageWaits))
	for name := range c.StageWaits {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EmitTokens records generated tokens for throughput accounting.
func (c *Collector) EmitTokens(t sim.Time, n int) {
	c.Tokens.Observe(t, float64(n))
}

// ObserveKVDemand records instantaneous KV memory demand in bytes.
func (c *Collector) ObserveKVDemand(t sim.Time, bytes int64) {
	c.KVDemand.Observe(t, float64(bytes))
}

// ThroughputTokensPerSec returns overall tokens/second across the run span.
func (c *Collector) ThroughputTokensPerSec() float64 {
	sums := c.Tokens.Sum()
	if len(sums) == 0 {
		return 0
	}
	var total float64
	for _, v := range sums {
		total += v
	}
	return total / (float64(len(sums)) * c.Tokens.Window().Seconds())
}
