// Package cluster implements the multi-instance serving system all five
// evaluated policies run on: a global dispatcher with load balancing, a
// monitor that tracks memory demand (including head-of-line queued
// requests), serving groups executing continuous batching with chunked
// prefill — pipelined when a group spans instances — and the plug-in point
// where overload-handling policies (recompute, swap, migrate, parameter
// drop) act.
package cluster

import (
	"fmt"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/instance"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/network"
	"kunserve/internal/obs"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// Config assembles a serving cluster.
type Config struct {
	Seed      int64
	Model     *model.Config
	GPU       *gpu.Spec
	Instances int
	// NetBandwidth is the per-instance egress bandwidth in bytes/s.
	NetBandwidth float64
	// BlockTokens is the KV block size (the paper tunes vLLM to 64).
	BlockTokens int
	// Budget bounds each iteration batch.
	Budget batching.Budget
	// MetricsWindow is the time-series bin width.
	MetricsWindow sim.Duration
	// KVProvisionBytes caps each instance's KVCache region (0 = all free
	// HBM); the paper provisions KVCache relative to average demand.
	KVProvisionBytes int64
	// Policy is the overload-handling mechanism under test.
	Policy Policy
	// Router keys the dispatcher's pick; nil selects the least-loaded
	// router every system shares. The disaggregated baseline sets the
	// queue-depth router.
	Router sched.Router
	// NewDiscipline builds a group's wait-queue discipline; nil selects
	// FCFS. Called once per group (including groups formed by
	// reconfiguration), so disciplines are never shared.
	NewDiscipline func() sched.Discipline
	// SLOClasses maps SLO class names to their targets: deadline-driven
	// disciplines read the TTFT targets, and per-class attainment
	// metrics are computed against them.
	SLOClasses sched.ClassTargets
	// PrefixCaching turns on content-addressed KVCache prefix sharing:
	// admission matches each request's shared-prefix chain against the
	// group's block index, cache hits skip the matched prefill chunks,
	// and freed prefix blocks are retained on an eviction list until
	// memory pressure reclaims them. Off (the default) reproduces the
	// identity-free counter pool byte-for-byte.
	PrefixCaching bool
	// CacheEvict names the cached-block eviction policy ("lru" default,
	// "fifo"); only meaningful with PrefixCaching.
	CacheEvict string
	// Tracer, when set, receives structured observability events from
	// every layer of the cluster (dispatch, queues, engine rounds, the KV
	// pools, policy reconfigurations) plus per-request lifecycle spans.
	// Nil — the default — disables tracing entirely: no emission site
	// allocates or schedules anything, so an untraced run is byte-identical
	// to a build without the tracing layer.
	Tracer obs.Tracer
	// MetricsReservoir, when positive, puts the cluster's collector in
	// bounded-memory mode: latency distributions become capacity-capped
	// reservoir samples (seeded from the cluster seed) and per-request
	// records are not retained — summaries only. Zero (the default) keeps
	// the exact, unbounded collector; the scale sweep sets it.
	MetricsReservoir int
	// LazyArrivals is ignored; it is kept only because bench/workload.go
	// sets it. Every run schedules each arrival from its predecessor's
	// callback under sequence numbers reserved up front (see Serve).
	LazyArrivals bool
}

// MonitorInterval is the global monitor's fixed sampling period (§4.1,
// Figure 4 ➀).
const MonitorInterval = sim.Second

// RetryRoundDelay is how long a group sleeps before retrying a scheduling
// round in which memory pressure blocked every batch item and the policy
// freed nothing synchronously.
//
// Determinism note: the delay is simulated time, so it is fully
// reproducible — but it participates in event ordering. Changing it
// reorders retry wakes against swap completions, migrations, and drops,
// and thereby changes results; it is part of the experiment
// configuration, not a free tuning knob.
const RetryRoundDelay = 10 * sim.Millisecond

func (c *Config) withDefaults() Config {
	out := *c
	if out.NetBandwidth == 0 {
		out.NetBandwidth = network.RDMA200
	}
	if out.BlockTokens == 0 {
		out.BlockTokens = 64
	}
	if out.Budget.MaxTokens == 0 {
		out.Budget = batching.DefaultBudget()
	}
	if out.MetricsWindow == 0 {
		out.MetricsWindow = 4 * sim.Second
	}
	return out
}

// Cluster is one serving deployment under one policy.
type Cluster struct {
	Sim       *sim.Simulation
	Model     *model.Config
	GPU       *gpu.Spec
	Fabric    *network.Fabric
	Instances []*instance.Instance
	Collector *metrics.Collector
	Policy    Policy

	// SLOClasses carries the per-class targets the cluster was built
	// with (possibly empty); summaries compute attainment against it.
	SLOClasses sched.ClassTargets

	BlockTokens int
	Budget      batching.Budget

	// PrefixCaching mirrors the config switch; groups enable sharing on
	// their pools when it is set.
	PrefixCaching bool

	cacheEvict kvcache.EvictPolicy

	router        sched.Router
	newDiscipline func() sched.Discipline

	// tracer/reqTrack are nil unless the config attached a Tracer.
	tracer   obs.Tracer
	reqTrack *obs.ReqTracker

	// retiredPools keeps the block pools of dissolved groups so their
	// sharing stats (and the cached blocks a reconfiguration destroyed)
	// stay visible in the run's KVCache report.
	retiredPools []*kvcache.Pool

	// peakCachedBlocks/peakSharedBlocks are monitor-sampled cluster-wide
	// cache gauges.
	peakCachedBlocks int
	peakSharedBlocks int

	groups      []*Group
	nextGroupID int

	outstanding    int
	horizonReached bool

	// Dispatch failures (no live group) are recorded here instead of
	// crashing the run; the runner surfaces them per cell.
	dispatchErr     error
	dispatchDropped int

	// Dispatch candidate state. index is the router's incremental
	// (key, ID) ordering of the open groups whose role admits arrivals:
	// NewGroup inserts a group, and SetRole and removeGroup take out one
	// that stops admitting them. byID resolves an index pick back to its
	// group (a dense slice — group IDs are small monotonic ints).
	// dirtyGroups queues groups whose key inputs changed since the last
	// sync (edge-triggered engine load notifications, pool resizes).
	byID        []*Group
	index       *sched.Index
	dirtyGroups []*Group

	// reqPool recycles finished request structs: live request memory
	// scales with concurrency, not trace length.
	reqPool request.Pool

	// arrivals is the trace being served; nextArrival indexes the request
	// whose arrival event is queued, under sequence number
	// arrivalSeq+nextArrival (Serve reserves one per request).
	arrivals    []workload.Request
	nextArrival int
	arrivalSeq  uint64

	// arriveFn/tickFn are persistent event callbacks (one closure for the
	// whole run instead of one per arrival / per monitor tick).
	arriveFn func(arg any)
	tickFn   func()
}

// New builds the cluster and runs the policy's Setup to form initial
// groups.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Model == nil || cfg.GPU == nil {
		return nil, fmt.Errorf("cluster: nil model or GPU spec")
	}
	if cfg.Instances <= 0 {
		return nil, fmt.Errorf("cluster: %d instances", cfg.Instances)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	evict, err := kvcache.EvictPolicyByName(cfg.CacheEvict)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]metrics.SLOTarget, len(cfg.SLOClasses))
	for name, t := range cfg.SLOClasses {
		targets[name] = metrics.SLOTarget{TTFT: t.TTFT, TBT: t.TBT}
	}
	c := &Cluster{
		Sim:           sim.New(cfg.Seed),
		Model:         cfg.Model,
		GPU:           cfg.GPU,
		Policy:        cfg.Policy,
		SLOClasses:    cfg.SLOClasses,
		BlockTokens:   cfg.BlockTokens,
		Budget:        cfg.Budget,
		PrefixCaching: cfg.PrefixCaching,
		cacheEvict:    evict,
		Collector:     metrics.NewCollector(cfg.MetricsWindow, targets),
		router:        sched.NewLeastLoaded(),
		newDiscipline: sched.NewFCFS,
		tracer:        cfg.Tracer,
		reqTrack:      obs.NewReqTracker(cfg.Tracer),
	}
	c.arriveFn = c.arrive
	c.tickFn = c.monitorTick
	if cfg.MetricsReservoir > 0 {
		c.Collector.Bound(cfg.MetricsReservoir, cfg.Seed)
	}
	if cfg.Router != nil {
		c.router = cfg.Router
	}
	if cfg.NewDiscipline != nil {
		c.newDiscipline = cfg.NewDiscipline
		if c.newDiscipline() == nil {
			return nil, fmt.Errorf("cluster: NewDiscipline returned nil")
		}
	}
	c.index = sched.NewIndex(c.router)
	c.Fabric = network.NewFabric(c.Sim, cfg.Instances, cfg.NetBandwidth, network.DefaultLatency)
	for i := 0; i < cfg.Instances; i++ {
		in, err := instance.NewProvisioned(i, cfg.GPU, cfg.Model, cfg.KVProvisionBytes)
		if err != nil {
			return nil, err
		}
		c.Instances = append(c.Instances, in)
	}
	if err := cfg.Policy.Setup(c); err != nil {
		return nil, err
	}
	if len(c.groups) == 0 {
		return nil, fmt.Errorf("cluster: policy %s formed no groups", cfg.Policy.Name())
	}
	return c, nil
}

// NewGroup forms a group over the given instance IDs (stage order) and
// registers it. Instances must already hold their intended layer shards.
func (c *Cluster) NewGroup(instanceIDs []int) (*Group, error) {
	insts := make([]*instance.Instance, len(instanceIDs))
	for i, id := range instanceIDs {
		if id < 0 || id >= len(c.Instances) {
			return nil, fmt.Errorf("cluster: instance id %d out of range", id)
		}
		insts[i] = c.Instances[id]
	}
	g, err := newGroup(c.nextGroupID, c, insts)
	if err != nil {
		return nil, err
	}
	c.nextGroupID++
	c.groups = append(c.groups, g)
	for g.ID >= len(c.byID) {
		c.byID = append(c.byID, nil)
	}
	c.byID[g.ID] = g
	// A new group's role is collocated, which admits arrivals.
	c.index.Update(g.candidate())
	return g, nil
}

// noteLoadChanged queues a group whose demand accounting changed (the
// engine's edge-triggered LoadChanged); the exact value is read back at
// the next dispatch.
func (c *Cluster) noteLoadChanged(g *Group) { c.markDirty(g) }

// markDirty queues a group whose routing key inputs (demand, queue depth,
// capacity) changed since the last sync. O(1) per change: the flush at
// the next dispatch coalesces however many deltas a round produced into
// one index update per group.
func (c *Cluster) markDirty(g *Group) {
	if g.idxDirty {
		return
	}
	g.idxDirty = true
	c.dirtyGroups = append(c.dirtyGroups, g)
}

// syncIndex drains the dirty list: per group, re-arm the engine's load
// notification and re-key the group in the index if it is there. O(d log n)
// for d dirty groups.
func (c *Cluster) syncIndex() {
	for i, g := range c.dirtyGroups {
		g.idxDirty = false
		c.dirtyGroups[i] = nil
		g.AckLoadNotify()
		if g.admitsArrivals() {
			c.index.Update(g.candidate())
		}
	}
	c.dirtyGroups = c.dirtyGroups[:0]
}

// Groups returns the live groups.
func (c *Cluster) Groups() []*Group {
	out := make([]*Group, 0, len(c.groups))
	for _, g := range c.groups {
		if !g.Closed() {
			out = append(out, g)
		}
	}
	return out
}

// EachGroup visits the live groups in registration order without
// allocating the copy Groups returns. fn must not add or remove groups.
func (c *Cluster) EachGroup(fn func(*Group)) {
	for _, g := range c.groups {
		if !g.Closed() {
			fn(g)
		}
	}
}

// GroupByID finds a live group: nil for an ID never issued, or whose
// group was closed or removed.
func (c *Cluster) GroupByID(id int) *Group {
	if id < 0 || id >= len(c.byID) {
		return nil
	}
	if g := c.byID[id]; g != nil && !g.Closed() {
		return g
	}
	return nil
}

// removeGroup unregisters a closed group. Its block pool is retired, not
// forgotten: the sharing stats survive into KVCacheReport, and cached
// blocks that die with the pool count as reconfiguration evictions. The
// pool keeps no recycled structs (kvcache.Pool.Retire).
func (c *Cluster) removeGroup(g *Group) {
	for i, x := range c.groups {
		if x == g {
			c.groups = append(c.groups[:i], c.groups[i+1:]...)
			g.pool.Retire()
			c.retiredPools = append(c.retiredPools, g.pool)
			if g.ID < len(c.byID) {
				c.byID[g.ID] = nil
			}
			c.index.Remove(g.ID)
			return
		}
	}
}

// Outstanding returns requests dispatched but not yet finished.
func (c *Cluster) Outstanding() int { return c.outstanding }

func (c *Cluster) requestFinished(r *request.Request) {
	c.outstanding--
	c.reqPool.Put(r)
}

// Tracer returns the cluster's tracer (nil when tracing is off). Policies
// nil-check it before emitting.
func (c *Cluster) Tracer() obs.Tracer { return c.tracer }

// ReqTrack returns the per-request lifecycle span tracker (nil when
// tracing is off; its methods are nil-receiver-safe).
func (c *Cluster) ReqTrack() *obs.ReqTracker { return c.reqTrack }

// candidate snapshots the group as the router sees it.
func (g *Group) candidate() sched.Candidate {
	return sched.Candidate{
		ID:             g.ID,
		DemandTokens:   g.DemandTokens(),
		CapacityTokens: g.CapacityTokens(),
		QueueLen:       g.QueueLen(),
	}
}

// Dispatch routes a request to a live group through the cluster's router
// (least-loaded by default: the Llumnix-style load-balancing dispatcher
// every system shares, §3). Only groups whose role admits new arrivals
// are candidates: in a disaggregated deployment decode groups receive
// work via KV handoff, never from the dispatcher. It returns an error
// instead of crashing when no live candidate exists; Serve aggregates
// such errors into Err.
//
// The pick is the index minimum by (key, group ID). Membership changes
// where groups are formed, removed or change role, and engine load deltas
// queue point updates, so a dispatch costs O(d log n) for d groups changed
// since the last one. CheckDispatchIndex audits the index.
func (c *Cluster) Dispatch(r *request.Request) error {
	c.syncIndex()
	id, ok := c.index.Min()
	if !ok {
		return fmt.Errorf("cluster: no live groups to dispatch request %d to", r.ID)
	}
	target := c.byID[id]
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{Phase: obs.PhaseInstant, Time: c.Sim.Now(),
			Cat: obs.CatDispatch, Name: c.router.Name(),
			Group: obs.GroupCluster, Track: "dispatch", Req: r.ID,
			Args: [2]obs.Arg{
				{Key: "group", Val: int64(target.ID)},
				{Key: "candidates", Val: int64(c.index.Len())},
			}})
	}
	target.Enqueue(r)
	return nil
}

// CheckDispatchIndex audits the dispatcher. It folds the dirty groups, as
// the next Dispatch would, then requires that every open group whose role
// admits arrivals is indexed under its current key, that no other group
// is indexed, and that the index minimum is the (key, group ID) minimum
// over those groups. Folding early leaves every later pick unchanged.
func (c *Cluster) CheckDispatchIndex() error {
	c.syncIndex()
	active, best := 0, -1
	var bestKey float64
	for id, g := range c.byID {
		key, indexed := c.index.Key(id)
		if g == nil || !g.admitsArrivals() {
			if indexed {
				return fmt.Errorf("cluster: group %d is indexed but cannot take arrivals", id)
			}
			continue
		}
		want := c.router.Key(g.candidate())
		if !indexed {
			return fmt.Errorf("cluster: active group %d is not indexed", id)
		}
		if key != want {
			return fmt.Errorf("cluster: group %d indexed under %s key %v, current key %v",
				id, c.router.Name(), key, want)
		}
		active++
		if best < 0 || want < bestKey {
			best, bestKey = id, want
		}
	}
	if n := c.index.Len(); n != active {
		return fmt.Errorf("cluster: index holds %d groups, %d are active", n, active)
	}
	if got, ok := c.index.Min(); ok != (best >= 0) || (ok && got != best) {
		return fmt.Errorf("cluster: index minimum %d (ok %v), argmin over the active groups %d", got, ok, best)
	}
	return nil
}

// noteDispatchError records a failed dispatch: the request is dropped from
// the run (it counts as unserved) and the first cause is kept for Err.
func (c *Cluster) noteDispatchError(err error) {
	c.dispatchDropped++
	c.outstanding--
	if c.dispatchErr == nil {
		c.dispatchErr = err
	}
}

// Err returns the aggregated dispatch failures of the run, nil when every
// request reached a group. The runner folds it into its per-cell error
// aggregation so one sick cell reports instead of crashing a whole set.
func (c *Cluster) Err() error {
	if c.dispatchErr == nil {
		return nil
	}
	if c.dispatchDropped > 1 {
		return fmt.Errorf("cluster: %d requests undispatchable; first: %w",
			c.dispatchDropped, c.dispatchErr)
	}
	return c.dispatchErr
}

// MonitorSkipped always returns 0: the monitor ticks at every interval.
// It stays only for kbench, which reports it, until the next change to
// bench/.
func (c *Cluster) MonitorSkipped() int { return 0 }

// DemandBytes returns cluster-wide KV memory demand in bytes: the engines'
// incrementally kept DemandTokens, summed over the live groups once per
// monitor tick.
func (c *Cluster) DemandBytes() int64 {
	var tokens int64
	for _, g := range c.groups {
		if !g.Closed() {
			tokens += int64(g.DemandTokens())
		}
	}
	return tokens * c.Model.KVBytesPerToken()
}

// CapacityBytes returns cluster-wide KV capacity in bytes.
func (c *Cluster) CapacityBytes() int64 {
	var tokens int64
	for _, g := range c.groups {
		if !g.Closed() {
			tokens += int64(g.CapacityTokens())
		}
	}
	return tokens * c.Model.KVBytesPerToken()
}

func (c *Cluster) monitorTick() {
	demand := c.DemandBytes()
	c.Collector.ObserveKVDemand(c.Sim.Now(), demand)
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{Phase: obs.PhaseCounter, Time: c.Sim.Now(),
			Cat: obs.CatDispatch, Name: "kv_demand_bytes",
			Group: obs.GroupCluster, Req: obs.ReqNone,
			Value: float64(demand)})
		c.tracer.Emit(obs.Event{Phase: obs.PhaseCounter, Time: c.Sim.Now(),
			Cat: obs.CatDispatch, Name: "outstanding",
			Group: obs.GroupCluster, Req: obs.ReqNone,
			Value: float64(c.outstanding)})
	}
	if c.PrefixCaching {
		cached, shared := 0, 0
		for _, g := range c.groups {
			if !g.Closed() {
				cached += g.pool.CachedBlocks()
				shared += g.pool.SharedBlocks()
			}
		}
		if cached > c.peakCachedBlocks {
			c.peakCachedBlocks = cached
		}
		if shared > c.peakSharedBlocks {
			c.peakSharedBlocks = shared
		}
	}
	c.Policy.OnTick(c)
	// Nudge idle groups: asynchronous memory relief (swap completions,
	// migrations) does not always have a wake edge.
	for _, g := range c.groups {
		if !g.Closed() {
			g.Wake()
		}
	}
	if c.outstanding > 0 || !c.horizonReached {
		c.Sim.After(MonitorInterval, "monitor", c.tickFn)
	}
}

// Serve dispatches the trace and runs the simulation until horizon (or
// until the event queue drains past it). It returns the collector for
// analysis. Callers should consult Err afterwards: requests that found no
// live group to dispatch to are dropped from the run and reported there
// rather than panicking mid-simulation.
func (c *Cluster) Serve(tr *workload.Trace, horizon sim.Time) *metrics.Collector {
	c.outstanding = len(tr.Requests)
	c.Collector.Reserve(len(tr.Requests))
	// Each arrival schedules its successor, so the event queue holds one
	// arrival instead of the whole trace. The sequence numbers reserved
	// here make every arrival break same-time ties exactly as it would
	// had the whole trace been scheduled at this point.
	c.arrivals = tr.Requests
	c.nextArrival = 0
	c.arrivalSeq = c.Sim.Reserve(len(tr.Requests))
	c.queueArrival()
	c.Sim.After(MonitorInterval, "monitor", c.tickFn)
	c.Sim.RunUntil(horizon)
	c.horizonReached = true
	return c.Collector
}

// queueArrival schedules trace request nextArrival's arrival event under
// its reserved sequence number.
func (c *Cluster) queueArrival() {
	if i := c.nextArrival; i < len(c.arrivals) {
		c.Sim.AtSeqCall(c.arrivals[i].Arrival, c.arrivalSeq+uint64(i), "arrive", c.arriveFn, nil)
	}
}

// arrive is the arrival event callback: it queues the next trace request's
// arrival, then admits this one.
func (c *Cluster) arrive(any) {
	wr := &c.arrivals[c.nextArrival]
	c.nextArrival++
	c.queueArrival()
	c.admitArrival(wr)
}

// admitArrival materializes one trace request (through the request pool)
// and dispatches it.
func (c *Cluster) admitArrival(wr *workload.Request) {
	r := c.reqPool.Get(wr.ID, wr.Arrival, wr.InputLen, wr.OutputLen)
	r.Client, r.Class = wr.Client, wr.Class
	if wr.SharedPrefix > 0 {
		// Clamp so at least the final prompt token is always computed
		// (engines need its logits even on a full prefix hit).
		sp := wr.SharedPrefix
		if sp >= wr.InputLen {
			sp = wr.InputLen - 1
		}
		r.Prefix = kvcache.Prefix{ID: wr.Client, Tokens: sp}
	}
	if err := c.Dispatch(r); err != nil {
		c.noteDispatchError(err)
	}
}

// TransplantRequests moves extracted requests into a successor group:
// running requests get fresh sequences sized to their current KV footprint
// (the physical copy is the exchange engine's job), and one in a stall
// state stays stalled there; requests whose KV does not fit are preempted
// for recompute; waiting requests join the queue in order.
func TransplantRequests(dst *Group, running, waiting []*request.Request) {
	for _, r := range running {
		if r.Seq == nil {
			// Lost its sequence mid-reconfiguration: recompute.
			r.ResetForRecompute()
			if r.State() != request.StateQueued {
				r.SetState(request.StateQueued)
			}
			dst.Enqueue(r)
			continue
		}
		tokens := r.Seq.Tokens()
		seq, err := dst.pool.NewSeq(tokens)
		if err != nil {
			r.Seq.Free()
			r.Seq = nil
			r.ResetForRecompute()
			r.SetState(request.StateQueued)
			dst.Enqueue(r)
			continue
		}
		r.Seq.Free()
		// The transplanted copy keeps its shared-prefix identity so the
		// content re-enters the successor pool's index when it completes.
		seq.SetPrefix(r.Prefix)
		r.Seq = seq
		dst.AdoptRunning(r)
	}
	for _, r := range waiting {
		r.GroupID = dst.ID
		dst.Queue().Push(r)
		// Direct discipline pushes bypass Enqueue's demand accounting.
		dst.AccountQueuedDemand(r)
	}
}

// KVCacheReport aggregates the prefix-cache activity of a whole run:
// every live pool's counters plus those of pools retired by
// reconfiguration, the monitor-sampled gauges, and the collector's
// prefill hit accounting.
type KVCacheReport struct {
	kvcache.Stats

	// CachedBlocks and SharedBlocks are the end-of-run gauges across live
	// pools: freed-but-cached blocks and referenced published ("pinned")
	// blocks. Peak* are their monitor-sampled maxima.
	CachedBlocks     int
	SharedBlocks     int
	PeakCachedBlocks int
	PeakSharedBlocks int

	// ReconfigEvicted counts cached blocks destroyed because their pool
	// was dissolved by a drop merge or a restore split.
	ReconfigEvicted int

	// PrefillTokens / CachedPrefillTokens mirror the collector's prefill
	// hit accounting; HitRate is their ratio.
	PrefillTokens       int64
	CachedPrefillTokens int64
	HitRate             float64
}

// KVCacheReport scrapes the cluster's prefix-cache state. Meaningful only
// when PrefixCaching is enabled; all-zero otherwise.
func (c *Cluster) KVCacheReport() KVCacheReport {
	var r KVCacheReport
	for _, g := range c.groups {
		if g.Closed() {
			continue
		}
		r.Stats.Add(g.pool.Stats())
		r.CachedBlocks += g.pool.CachedBlocks()
		r.SharedBlocks += g.pool.SharedBlocks()
	}
	for _, p := range c.retiredPools {
		r.Stats.Add(p.Stats())
		r.ReconfigEvicted += p.CachedBlocks()
	}
	r.PeakCachedBlocks = c.peakCachedBlocks
	r.PeakSharedBlocks = c.peakSharedBlocks
	if r.CachedBlocks > r.PeakCachedBlocks {
		r.PeakCachedBlocks = r.CachedBlocks
	}
	if r.SharedBlocks > r.PeakSharedBlocks {
		r.PeakSharedBlocks = r.SharedBlocks
	}
	r.PrefillTokens = c.Collector.PrefillTokens
	r.CachedPrefillTokens = c.Collector.CachedPrefillTokens
	r.HitRate = c.Collector.PrefixHitRate()
	return r
}
