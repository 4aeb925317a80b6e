package runner

import (
	"sort"

	"kunserve/internal/cluster"
	"kunserve/internal/core"
	"kunserve/internal/metrics"
	"kunserve/internal/sched"
)

// Summary is the unified scrape of one run's metrics.Collector plus the
// cluster-level numbers the evaluation figures report. It replaces the
// per-figure ad-hoc row extraction: every experiment reads the same fields,
// and the -json CLI mode marshals it directly.
type Summary struct {
	// Key echoes the cell key the summary came from.
	Key string `json:",omitempty"`

	// Finished counts completed requests; Unserved counts requests still
	// outstanding at the horizon.
	Finished int
	Unserved int

	// Latency percentiles in seconds (nearest-rank over finished
	// requests; TPOT skips single-token outputs).
	TTFTP50, TTFTP90, TTFTP99, TTFTP999 float64
	TPOTP50, TPOTP90, TPOTP99, TPOTP999 float64

	// Throughput is overall generated tokens/second across the run span.
	Throughput float64

	// Time series at the collector's window: mean TTFT per bin (s),
	// token rate per bin (tokens/s), and peak KV demand per bin (GB).
	MeanTTFTSeries   []float64
	ThroughputSeries []float64
	DemandGBSeries   []float64

	// CapacityGB is the cluster KV capacity after the run (parameter
	// drops grow it; restores shrink it back).
	CapacityGB float64

	// BubbleRatio is the mean GPU idle fraction across pipelined groups
	// (zero when nothing pipelined).
	BubbleRatio float64

	// PerClass breaks latency, SLO attainment, and goodput down by SLO
	// class, sorted by class name. Only populated for class-tagged
	// workloads, so untagged runs marshal identically to before.
	PerClass []ClassSummary `json:",omitempty"`

	// Stages breaks disaggregated serving into per-stage queueing and
	// transfer times (prefill queue delay, handoff back-pressure, KV
	// transfer, decode queue delay), sorted by stage name. Empty — and
	// absent from JSON — for collocated runs, which never observe a
	// stage wait.
	Stages []StageSummary `json:",omitempty"`

	// PrefixCache reports the content-addressed KVCache's sharing
	// activity: hit rate, prefill compute saved, cached/pinned block
	// gauges, copy-on-write copies, and evictions. Nil (and absent from
	// JSON) unless the run enabled prefix caching, so default runs
	// marshal identically to before.
	PrefixCache *PrefixCacheSummary `json:",omitempty"`

	// Reconfiguration log (KunServe policies only; zero otherwise).
	Drops    int
	Restores int
	Events   []core.Event `json:",omitempty"`

	// Per-record latencies, index-aligned, for SLO recomputation under
	// arbitrary limits (Figure 13). Excluded from JSON: the quantiles and
	// series above are the machine-readable summary.
	TTFTs   []float64 `json:"-"`
	TPOTs   []float64 `json:"-"`
	Outputs []int     `json:"-"`
}

// PrefixCacheSummary is the run-level scrape of the paged KVCache's prefix
// sharing (cluster.KVCacheReport flattened for JSON consumers).
type PrefixCacheSummary struct {
	// HitRate is the fraction of committed prefill tokens served from the
	// cache; PrefillTokens the total commitment and PrefillTokensSaved
	// the cached subset (the prefill compute the run skipped).
	HitRate            float64
	PrefillTokens      int64
	PrefillTokensSaved int64

	// Lookups/Hits count admission-time chain matches attempted and
	// succeeded; CoWCopies counts copy-on-write block copies.
	Lookups   int64
	Hits      int64
	CoWCopies int64

	// Evictions counts cached blocks reclaimed under allocation pressure,
	// ShrinkEvictions those evicted by pool shrinks (restores), and
	// ReconfigEvicted those destroyed with pools a reconfiguration
	// dissolved.
	Evictions       int64
	ShrinkEvictions int64
	ReconfigEvicted int

	// CachedBlocks/SharedBlocks are end-of-run gauges (freed-but-cached
	// and referenced published blocks); Peak* their sampled maxima.
	CachedBlocks     int
	SharedBlocks     int
	PeakCachedBlocks int
	PeakSharedBlocks int
}

// StageSummary is one disaggregation stage's waiting-time distribution:
// how long requests spent queued for prefill, in KV handoff transfer, or
// waiting for their first decode, in seconds.
type StageSummary struct {
	Stage string
	Count int

	Mean, P50, P99 float64
}

// ClassSummary is one SLO class's slice of a run: latency percentiles,
// attainment against the class's declared targets, and goodput.
type ClassSummary struct {
	Class    string
	Finished int

	TTFTP50, TTFTP90, TTFTP99 float64
	TPOTP50, TPOTP99          float64

	// TTFTTarget and TBTTarget echo the class's declared SLO targets in
	// seconds (0 = none declared).
	TTFTTarget float64
	TBTTarget  float64

	// Attainment is the fraction of the class's finished requests meeting
	// every declared target (1 when the class declares none).
	Attainment float64

	// Goodput is SLO-attaining finished requests per second over the run
	// span — the per-class throughput that actually counts.
	Goodput float64
}

// classBreakdown computes the per-class summaries from the collector's
// per-class distributions and attained counts, echoing the cluster's class
// targets. Declared classes that finished nothing (total starvation —
// exactly what a discipline comparison must expose) still get a row, with
// zero attainment and goodput, rather than silently vanishing.
func classBreakdown(col *metrics.Collector, targets sched.ClassTargets, spanSeconds float64) []ClassSummary {
	names := col.ClassNames()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range targets.Names() {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	// emptyDist backs classes with no finished requests. The collector's
	// dists are read through their pointers — copying a Dist by value
	// would share its sample array but drop the sorted memo, re-sorting
	// the same samples on every percentile read.
	var emptyDist metrics.Dist
	out := make([]ClassSummary, 0, len(names))
	for _, name := range names {
		ttft, tpot := col.ClassTTFT[name], col.ClassTPOT[name]
		if ttft == nil {
			ttft = &emptyDist
		}
		if tpot == nil {
			tpot = &emptyDist
		}
		cs := ClassSummary{
			Class:      name,
			Finished:   ttft.Count(),
			TTFTP50:    ttft.Percentile(50),
			TTFTP90:    ttft.Percentile(90),
			TTFTP99:    ttft.Percentile(99),
			TPOTP50:    tpot.Percentile(50),
			TPOTP99:    tpot.Percentile(99),
			TTFTTarget: targets[name].TTFT,
			TBTTarget:  targets[name].TBT,
		}
		attained := float64(col.ClassAttained(name))
		if cs.Finished > 0 {
			cs.Attainment = attained / float64(cs.Finished)
		}
		if spanSeconds > 0 {
			cs.Goodput = attained / spanSeconds
		}
		out = append(out, cs)
	}
	return out
}

// Summarize scrapes a served cluster into a Summary.
func Summarize(cl *cluster.Cluster) Summary {
	col := cl.Collector
	s := Summary{
		Finished:         col.TTFT.Count(),
		Unserved:         cl.Outstanding(),
		TTFTP50:          col.TTFT.Percentile(50),
		TTFTP90:          col.TTFT.Percentile(90),
		TTFTP99:          col.TTFT.Percentile(99),
		TTFTP999:         col.TTFT.Percentile(99.9),
		TPOTP50:          col.TPOT.Percentile(50),
		TPOTP90:          col.TPOT.Percentile(90),
		TPOTP99:          col.TPOT.Percentile(99),
		TPOTP999:         col.TPOT.Percentile(99.9),
		Throughput:       col.ThroughputTokensPerSec(),
		MeanTTFTSeries:   col.MeanTTFT.MeanPerBin(),
		ThroughputSeries: col.Tokens.RatePerSecond(),
		CapacityGB:       float64(cl.CapacityBytes()) / 1e9,
	}
	for _, rec := range col.Records {
		s.TTFTs = append(s.TTFTs, rec.TTFT())
		s.TPOTs = append(s.TPOTs, rec.TPOT())
		s.Outputs = append(s.Outputs, rec.OutputTokens)
	}
	for _, v := range col.KVDemand.Values() {
		s.DemandGBSeries = append(s.DemandGBSeries, v/1e9)
	}
	// Span matches ThroughputTokensPerSec's denominator so goodput and
	// token throughput are comparable rates.
	span := float64(col.Tokens.Bins()) * col.Tokens.Window().Seconds()
	s.PerClass = classBreakdown(col, cl.SLOClasses, span)
	for _, name := range col.StageNames() {
		d := col.StageWaits[name]
		s.Stages = append(s.Stages, StageSummary{
			Stage: name,
			Count: d.Count(),
			Mean:  d.Mean(),
			P50:   d.Percentile(50),
			P99:   d.Percentile(99),
		})
	}
	if cl.PrefixCaching {
		r := cl.KVCacheReport()
		s.PrefixCache = &PrefixCacheSummary{
			HitRate:            r.HitRate,
			PrefillTokens:      r.PrefillTokens,
			PrefillTokensSaved: r.CachedPrefillTokens,
			Lookups:            r.Lookups,
			Hits:               r.Hits,
			CoWCopies:          r.CoWCopies,
			Evictions:          r.Evictions,
			ShrinkEvictions:    r.ShrinkEvictions,
			ReconfigEvicted:    r.ReconfigEvicted,
			CachedBlocks:       r.CachedBlocks,
			SharedBlocks:       r.SharedBlocks,
			PeakCachedBlocks:   r.PeakCachedBlocks,
			PeakSharedBlocks:   r.PeakSharedBlocks,
		}
	}
	if ks, ok := cl.Policy.(*core.Policy); ok {
		s.Drops = ks.Drops()
		s.Restores = ks.Restores()
		s.Events = ks.Events()
	}
	var ratios []float64
	for _, g := range cl.Groups() {
		if g.Stages() > 1 && g.Pipeline().SpanTime() > 0 {
			ratios = append(ratios, g.Pipeline().BubbleRatio())
		}
	}
	for _, r := range ratios {
		s.BubbleRatio += r / float64(len(ratios))
	}
	return s
}
