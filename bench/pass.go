package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"kunserve/internal/cluster"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// passResult is one pass of one workload: every cell of every trace, run
// one after another on one goroutine.
type passResult struct {
	Workload string `json:"workload"`
	// Cells counts attempted cells; Failures lists the failed ones as
	// "key: reason", in cell order.
	Cells    int      `json:"cells"`
	Failures []string `json:"failures,omitempty"`
	// Digest is the FNV-1a hash of the cells' runner.Summary JSON, in cell
	// order: equal digests mean byte-identical simulated results.
	Digest string `json:"digest"`
	// Metrics holds the pass's measurements by metric name. Traced passes
	// add "<layer>.self_s" for every layer seen in the Serve profile.
	Metrics map[string]float64 `json:"metrics"`
	// Spans are the bench's own spans around each public call (traced
	// passes only).
	Spans []span `json:"spans,omitempty"`
}

// span is one timed call: pass → cell → gen/new/serve/summarize. The trace
// is generated once per group of cells, so gen hangs off its first cell.
// Span times are raw host time, not rescaled.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   string `json:"cell,omitempty"`
	// StartUS and DurUS are microseconds since the pass began.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// runtimeSamples are the runtime/metrics counters a pass reports as deltas.
var runtimeSamples = []struct{ key, metric string }{
	{"/gc/heap/allocs:bytes", "runtime.alloc_mb"},
	{"/gc/heap/allocs:objects", "runtime.mallocs"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles"},
	{"/cpu/classes/gc/total:cpu-seconds", "runtime.gc_cpu_s"},
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, r := range runtimeSamples {
		s[i].Name = r.key
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// pass accumulates one pass's measurements.
type pass struct {
	res    passResult
	m      map[string]float64
	start  time.Time
	traced bool
	digest hash.Hash64
	// profile buffers the CPU profile of the Serve call in flight; cpu
	// sums the profiled CPU seconds by layer.
	profile bytes.Buffer
	cpu     map[string]float64
	// horizonTicks counts the monitor ticks a dense monitor would fire.
	horizonTicks float64
}

// runPass runs every cell of the workload at seed once. A traced pass
// CPU-profiles each Serve call and records spans; the profiler slows it, so
// end-to-end numbers come from untraced passes.
func runPass(p params, seed int64, traced bool) passResult {
	groups, err := p.groups(seed)
	if err != nil {
		return passResult{Workload: p.Name, Cells: 1,
			Failures: []string{err.Error()}, Metrics: map[string]float64{}}
	}
	return runGroups(p.Name, groups, traced)
}

func newPass(name string, traced bool) *pass {
	return &pass{
		res:    passResult{Workload: name},
		m:      map[string]float64{},
		start:  time.Now(),
		traced: traced,
		digest: fnv.New64a(),
		cpu:    map[string]float64{},
	}
}

func runGroups(name string, groups []group, traced bool) passResult {
	probes := probeHost()
	ps := newPass(name, traced)
	before := readRuntime()
	root := ps.open("pass", 0, "")
	for _, g := range groups {
		ps.runGroup(g, root)
	}
	ps.close(root)
	after := readRuntime()
	// The closing probe runs on a collected heap, so the simulator's live
	// data cannot slow it.
	runtime.GC()
	probes = append(probes, probeHost()...)

	m := ps.m
	for i, r := range runtimeSamples {
		m[r.metric] = after[i] - before[i]
	}
	m["runtime.alloc_mb"] /= 1 << 20
	for layer, s := range ps.cpu {
		m[layer+".self_s"] = s
	}
	m["setup_s"] = m["workload.gen_s"] + m["cluster.new_s"]
	m["wall_s"] = m["setup_s"] + m["cluster.serve_s"] + m["runner.summarize_s"]
	m["host.wall_raw_s"] = m["wall_s"]
	_, probe, _ := quartiles(probes)
	slowdown := probe / probeNominal.Seconds()
	m["host.slowdown"] = slowdown
	scale := math.Pow(slowdown, probeElasticity)
	for name, v := range m {
		if name != "host.wall_raw_s" && (inSeconds[name] || strings.HasSuffix(name, ".self_s")) {
			m[name] = v / scale
		}
	}
	m["sim_tok_per_s"] = ratio(m["metrics.gen_tokens"], m["cluster.serve_s"])
	m["sim.events_per_req"] = ratio(m["sim.events"], m["cluster.requests"])
	m["sim.ns_per_event"] = ratio(m["cluster.serve_s"]*1e9, m["sim.events"])
	m["cluster.monitor_skip_ratio"] = ratio(m["cluster.monitor_skipped"], ps.horizonTicks)
	m["kvcache.hit_rate"] = ratio(m["kvcache.hits"], m["kvcache.lookups"])
	ps.res.Metrics = m
	ps.res.Digest = fmt.Sprintf("%016x", ps.digest.Sum64())
	if !traced {
		ps.res.Spans = nil
	}
	return ps.res
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (ps *pass) sinceStartUS() float64 {
	return float64(time.Since(ps.start).Nanoseconds()) / 1e3
}

// open starts a span and returns its ID.
func (ps *pass) open(name string, parent int, cellKey string) int {
	id := len(ps.res.Spans) + 1
	ps.res.Spans = append(ps.res.Spans, span{
		Name: name, ID: id, Parent: parent, Cell: cellKey, StartUS: ps.sinceStartUS(),
	})
	return id
}

func (ps *pass) close(id int) {
	s := &ps.res.Spans[id-1]
	s.DurUS = ps.sinceStartUS() - s.StartUS
}

// timed runs fn as a span under parent and returns its wall seconds. A
// panic in fn becomes its error, so one broken cell cannot end the pass.
func (ps *pass) timed(name string, parent int, cellKey string, fn func() error) (secs float64, err error) {
	id := ps.open(name, parent, cellKey)
	t := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", name, r)
		}
		secs = time.Since(t).Seconds()
		ps.close(id)
	}()
	return 0, fn()
}

// runGroup generates one trace and serves it with each of the group's cells.
func (ps *pass) runGroup(g group, root int) {
	var tr *workload.Trace
	var genErr error
	for i, c := range g.cells {
		ps.res.Cells++
		cellID := ps.open("cell", root, c.key)
		if i == 0 {
			var secs float64
			secs, genErr = ps.timed("gen", cellID, c.key, func() (err error) {
				tr, err = g.gen()
				return err
			})
			ps.m["workload.gen_s"] += secs
		}
		err := genErr
		var s runner.Summary
		if err == nil {
			s, err = ps.runCell(c, tr, tr.Duration().Add(g.drain), cellID)
		}
		if err != nil {
			ps.res.Failures = append(ps.res.Failures, fmt.Sprintf("%s: %v", c.key, err))
			ps.digest.Write([]byte(c.key + " failed\n"))
		} else if b, err := json.Marshal(s); err != nil {
			ps.res.Failures = append(ps.res.Failures, fmt.Sprintf("%s: %v", c.key, err))
		} else {
			ps.digest.Write(b)
		}
		ps.close(cellID)
	}
}

// runCell builds, serves, summarizes and checks one cell.
func (ps *pass) runCell(c cell, tr *workload.Trace, horizon sim.Time, cellID int) (runner.Summary, error) {
	var cl *cluster.Cluster
	var s runner.Summary
	secs, err := ps.timed("new", cellID, c.key, func() (err error) {
		cfg := c.config
		cfg.Policy = c.newPolicy()
		if cl, err = cluster.New(cfg); err != nil {
			return fmt.Errorf("cluster.New: %w", err)
		}
		return nil
	})
	ps.m["cluster.new_s"] += secs
	if err != nil {
		return s, err
	}
	// The profiler starts and stops outside the timed span: stopping waits
	// for the profile writer, which is not Serve's cost.
	if ps.traced {
		if err := pprof.StartCPUProfile(&ps.profile); err != nil {
			return s, err
		}
	}
	secs, err = ps.timed("serve", cellID, c.key, func() error {
		cl.Serve(tr, horizon)
		return nil
	})
	if ps.traced {
		if perr := ps.collectProfile(); err == nil {
			err = perr
		}
	}
	ps.m["cluster.serve_s"] += secs
	ps.m["cluster.serve_s."+c.system] += secs
	if err != nil {
		return s, err
	}
	secs, err = ps.timed("summarize", cellID, c.key, func() error {
		s = runner.Summarize(cl)
		return nil
	})
	ps.m["runner.summarize_s"] += secs
	if err != nil {
		return s, err
	}
	s.Key = c.key
	if err := checkCell(cl, s, tr); err != nil {
		return s, err
	}
	ps.count(cl, s, tr, horizon)
	return s, nil
}

// collectProfile stops the CPU profile and adds its samples to the layer
// totals.
func (ps *pass) collectProfile() error {
	pprof.StopCPUProfile()
	leaves, err := parseLeafCPU(ps.profile.Bytes())
	ps.profile.Reset()
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for fn, secs := range leaves {
		ps.cpu[layerOf(fn)] += secs
	}
	return nil
}

// checkCell is the per-cell correctness check: no dispatch failure, every
// request either finished or still outstanding, and every live KV pool
// consistent.
func checkCell(cl *cluster.Cluster, s runner.Summary, tr *workload.Trace) error {
	if err := cl.Err(); err != nil {
		return err
	}
	if s.Finished+s.Unserved != len(tr.Requests) {
		return fmt.Errorf("conservation: finished %d + unserved %d != %d requests",
			s.Finished, s.Unserved, len(tr.Requests))
	}
	for _, g := range cl.Groups() {
		if err := g.Pool().CheckInvariants(); err != nil {
			return fmt.Errorf("group %d: %w", g.ID, err)
		}
	}
	return nil
}

// count adds the cell's deterministic work counters.
func (ps *pass) count(cl *cluster.Cluster, s runner.Summary, tr *workload.Trace, horizon sim.Time) {
	m := ps.m
	m["sim.events"] += float64(cl.Sim.Processed)
	m["cluster.requests"] += float64(len(tr.Requests))
	m["cluster.monitor_skipped"] += float64(cl.MonitorSkipped())
	ps.horizonTicks += float64(sim.Duration(horizon) / sim.Second)
	for _, g := range cl.Groups() {
		m["cluster.engine.rounds"] += float64(g.RoundsRun())
	}
	m["metrics.finished"] += float64(s.Finished)
	m["metrics.unserved"] += float64(s.Unserved)
	m["metrics.prefill_tokens"] += float64(cl.Collector.PrefillTokens)
	for _, v := range cl.Collector.Tokens.Sum() {
		m["metrics.gen_tokens"] += v
	}
	r := cl.KVCacheReport()
	m["kvcache.lookups"] += float64(r.Lookups)
	m["kvcache.hits"] += float64(r.Hits)
	m["kvcache.hit_tokens"] += float64(r.HitTokens)
	m["kvcache.cow_copies"] += float64(r.CoWCopies)
	m["kvcache.evictions"] += float64(r.Evictions)
	m["kvcache.shrink_evictions"] += float64(r.ShrinkEvictions)
	m["kvcache.reconfig_evicted"] += float64(r.ReconfigEvicted)
	m["core.drops"] += float64(s.Drops)
	m["core.restores"] += float64(s.Restores)
}
