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
	// MonitorInterval is the global monitor's fixed sampling period
	// (§4.1, Figure 4 ➀).
	MonitorInterval sim.Duration
	// MetricsWindow is the time-series bin width.
	MetricsWindow sim.Duration
	// KVProvisionBytes caps each instance's KVCache region (0 = all free
	// HBM); the paper provisions KVCache relative to average demand.
	KVProvisionBytes int64
	// Policy is the overload-handling mechanism under test.
	Policy Policy
	// NewRouter builds the dispatch router; nil selects the default
	// least-loaded router. Called once per cluster with the cluster seed,
	// so stateful routers (round-robin cursors, p2c RNGs) are never
	// shared across concurrently executing cells.
	NewRouter func(seed int64) sched.Router
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
	// the exact, unbounded collector.
	MetricsReservoir int
	// LazyArrivals schedules each trace arrival from its predecessor's
	// callback instead of pre-scheduling the whole trace, bounding the
	// event queue by concurrency instead of trace length. It changes
	// event sequence numbering — and therefore tie-breaks between
	// same-timestamp events — so it is reserved for streaming-mode runs,
	// never the byte-identical default path.
	LazyArrivals bool
	// ScanDispatch forces Dispatch onto the full candidate scan even when
	// the router is indexable, rebuilding the slate per request the way
	// the pre-index dispatcher did. The scan is the semantic oracle: CI
	// diffs indexed runs against it, and equivalence tests use it to pin
	// the index to the scan's first-wins tie-break. Off (the default)
	// lets keyed routers (least-loaded, least-kv, queue-depth) dispatch
	// from the incremental index in O(log n).
	ScanDispatch bool
	// RetryRoundDelay is how long a group sleeps before retrying a
	// scheduling round in which memory pressure blocked every batch item
	// and the policy freed nothing synchronously (default 10 ms).
	//
	// Determinism note: the delay is simulated time, so any fixed value
	// is fully reproducible — but it participates in event ordering.
	// Changing it reorders retry wakes against swap completions,
	// migrations, and drops, and thereby changes results; treat it as
	// part of the experiment configuration, not a free tuning knob.
	RetryRoundDelay sim.Duration
}

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
	if out.MonitorInterval == 0 {
		out.MonitorInterval = sim.Second
	}
	if out.MetricsWindow == 0 {
		out.MetricsWindow = 4 * sim.Second
	}
	if out.RetryRoundDelay == 0 {
		out.RetryRoundDelay = 10 * sim.Millisecond
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

	cacheEvict      kvcache.EvictPolicy
	retryRoundDelay sim.Duration

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

	monitorInterval sim.Duration
	outstanding     int
	horizonReached  bool

	// Dispatch failures (no live group) are recorded here instead of
	// crashing the run; the runner surfaces them per cell.
	dispatchErr     error
	dispatchDropped int

	// Dispatch candidate state. activeGroups is the persistent active
	// candidate set (open groups whose role admits arrivals, ascending
	// group ID — registration order); it is rebuilt only when membership
	// or a role changes (activeStale), never per request. byID resolves
	// an index pick back to its group (a dense slice — group IDs are
	// small monotonic ints). index is the keyed router's incremental
	// (key, ID) ordering, nil on the scan path; dirtyGroups queues groups
	// whose key inputs changed since the last sync (edge-triggered engine
	// load notifications, pool resizes). routeCands is the scan
	// fallback's value slate, reused per call (a cluster is
	// single-threaded inside its simulation; the scan path stays
	// allocation-free).
	activeGroups []*Group
	byID         []*Group
	activeStale  bool
	index        *sched.Index
	dirtyGroups  []*Group
	scanDispatch bool
	routeCands   []sched.Candidate

	// totalDemandTokens mirrors the sum of every open group's
	// DemandTokens, synced from the dirty list at each read so the
	// monitor's DemandBytes is O(d) in dirty groups instead of a fleet
	// walk.
	totalDemandTokens int64

	// reqPool recycles finished request structs: live request memory
	// scales with concurrency, not trace length.
	reqPool request.Pool

	// lazyArrivals mirrors Config.LazyArrivals.
	lazyArrivals bool

	// admitFn/tickFn are persistent event callbacks (one closure for the
	// whole run instead of one per arrival / per monitor tick).
	admitFn func(arg any)
	tickFn  func()

	// HostParamReplica reflects §4.4 fault tolerance: parameters are
	// replicated in host DRAM so restoration always succeeds.
	HostParamReplica bool
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
	c := &Cluster{
		Sim:              sim.New(cfg.Seed),
		Model:            cfg.Model,
		GPU:              cfg.GPU,
		Policy:           cfg.Policy,
		SLOClasses:       cfg.SLOClasses,
		BlockTokens:      cfg.BlockTokens,
		Budget:           cfg.Budget,
		PrefixCaching:    cfg.PrefixCaching,
		cacheEvict:       evict,
		retryRoundDelay:  cfg.RetryRoundDelay,
		monitorInterval:  cfg.MonitorInterval,
		Collector:        metrics.NewCollector(cfg.MetricsWindow),
		HostParamReplica: true,
		router:           sched.NewLeastLoaded(),
		newDiscipline:    sched.NewFCFS,
		tracer:           cfg.Tracer,
		reqTrack:         obs.NewReqTracker(cfg.Tracer),
		lazyArrivals:     cfg.LazyArrivals,
	}
	c.admitFn = func(arg any) { c.admitArrival(arg.(*workload.Request)) }
	c.tickFn = c.monitorTick
	if cfg.MetricsReservoir > 0 {
		targets := make(map[string]metrics.SLOTarget, len(cfg.SLOClasses))
		for name, t := range cfg.SLOClasses {
			targets[name] = metrics.SLOTarget{TTFT: t.TTFT, TBT: t.TBT}
		}
		c.Collector.Bound(cfg.MetricsReservoir, cfg.Seed, targets)
	}
	if cfg.NewRouter != nil {
		if c.router = cfg.NewRouter(cfg.Seed); c.router == nil {
			return nil, fmt.Errorf("cluster: NewRouter returned nil")
		}
	}
	if cfg.NewDiscipline != nil {
		c.newDiscipline = cfg.NewDiscipline
		if c.newDiscipline() == nil {
			return nil, fmt.Errorf("cluster: NewDiscipline returned nil")
		}
	}
	c.scanDispatch = cfg.ScanDispatch
	c.activeStale = true
	if !c.scanDispatch {
		if k, ok := c.router.(sched.Keyed); ok {
			c.index = sched.NewIndex(k)
		}
	}
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
	c.invalidateActive()
	return g, nil
}

// invalidateActive marks the dispatcher's cached candidate set stale; the
// next dispatch (or index read) rebuilds it. Fired on group creation and
// removal, role changes, and closes.
func (c *Cluster) invalidateActive() { c.activeStale = true }

// noteLoadChanged queues a group whose demand accounting changed (the
// engine's edge-triggered LoadChanged); the exact value is read back at
// the next sync point. Queued on the scan path too: the fleet demand
// total is synced from the same dirty list.
func (c *Cluster) noteLoadChanged(g *Group) { c.markDirty(g) }

// markDirty queues a group whose routing key inputs (demand, queue depth,
// capacity) changed since the last sync. O(1) per change: the flush at
// the next dispatch (or DemandBytes read) coalesces however many deltas a
// round produced into one demand fold and one index update per group.
func (c *Cluster) markDirty(g *Group) {
	if g.idxDirty {
		return
	}
	g.idxDirty = true
	c.dirtyGroups = append(c.dirtyGroups, g)
}

// syncDemand drains the dirty list: per group, re-arm the engine's load
// notification, fold the group's exact DemandTokens into the fleet total
// (replacing its previous contribution), and — when the index is live and
// the candidate set is current — apply the key change to the index.
// O(d log n) for d dirty groups. While the candidate set is stale the
// index updates are skipped; rebuildActive reloads the index wholesale.
func (c *Cluster) syncDemand() {
	if len(c.dirtyGroups) == 0 {
		return
	}
	indexLive := c.index != nil && !c.activeStale
	for i, g := range c.dirtyGroups {
		g.idxDirty = false
		c.dirtyGroups[i] = nil
		g.exec.AckLoadNotify()
		d := g.exec.DemandTokens()
		c.totalDemandTokens += int64(d - g.lastDemandTokens)
		g.lastDemandTokens = d
		if indexLive && g.inActive {
			c.index.Update(g.candidate())
		}
	}
	c.dirtyGroups = c.dirtyGroups[:0]
}

// rebuildActive refreshes the persistent active candidate set (and, on the
// index path, reloads the index) after a membership or role change. The
// freed tail of the reused backing array is cleared so closed groups'
// pointers do not outlive their removal.
func (c *Cluster) rebuildActive() {
	// Fold pending demand first (activeStale suppresses index updates;
	// the reload below subsumes them).
	c.syncDemand()
	old := c.activeGroups
	act := old[:0]
	for _, g := range c.groups {
		g.inActive = !g.Closed() && g.Role().AdmitsNewArrivals()
		if g.inActive {
			act = append(act, g)
		}
	}
	// A shrink stays in the shared backing array (append never reallocates
	// below the old length), so clearing the tail releases the dropped
	// *Group pointers.
	if len(act) < len(old) {
		clear(old[len(act):])
	}
	c.activeGroups = act
	c.activeStale = false
	if c.index == nil {
		return
	}
	c.index.Reset()
	for _, g := range act {
		c.index.Update(g.candidate())
	}
}

// syncIndex brings the index up to date with every change since the last
// dispatch: a membership rebuild if one is pending, then the dirty-key
// flush.
func (c *Cluster) syncIndex() {
	if c.activeStale {
		c.rebuildActive()
		return
	}
	c.syncDemand()
}

// IndexedMin returns the dispatcher's current index minimum — the active
// group minimizing (router key, group ID) — and the keyed router
// maintaining it. (nil, nil) when dispatch runs on the scan path (non-
// indexable router or Config.ScanDispatch) or no group is active. The
// index is synced first, so the result is exactly what the next Dispatch
// would pick.
func (c *Cluster) IndexedMin() (*Group, sched.Keyed) {
	if c.index == nil {
		return nil, nil
	}
	c.syncIndex()
	id, ok := c.index.Min()
	if !ok {
		return nil, nil
	}
	return c.byID[id], c.index.Keyed()
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

// GroupByID finds a live group.
func (c *Cluster) GroupByID(id int) *Group {
	for _, g := range c.groups {
		if g.ID == id && !g.Closed() {
			return g
		}
	}
	return nil
}

// RemoveGroup unregisters a closed group. Its block pool is retired, not
// forgotten: the sharing stats survive into KVCacheReport, and cached
// blocks that die with the pool count as reconfiguration evictions.
func (c *Cluster) RemoveGroup(g *Group) {
	for i, x := range c.groups {
		if x == g {
			c.groups = append(c.groups[:i], c.groups[i+1:]...)
			c.retiredPools = append(c.retiredPools, g.pool)
			g.inActive = false
			if g.ID < len(c.byID) {
				c.byID[g.ID] = nil
			}
			c.invalidateActive()
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

// Router returns the dispatch router in use.
func (c *Cluster) Router() sched.Router { return c.router }

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
// Keyed routers dispatch from the incremental index: the active candidate
// set persists across requests (invalidated only on membership or role
// change), engine load deltas queue point updates, and the pick is the
// index minimum — byte-identical to the full scan by the (key, group ID)
// tie-break contract, at O(d log n) per request instead of O(n). Other
// routers (p2c, round-robin, affinity) refresh the scan slate over the
// same persistent active set.
func (c *Cluster) Dispatch(r *request.Request) error {
	if c.activeStale {
		c.rebuildActive()
	}
	var target *Group
	ncands := len(c.activeGroups)
	if c.index != nil {
		c.syncDemand()
		if id, ok := c.index.Min(); ok {
			target = c.byID[id]
		}
	} else if ncands > 0 {
		cands := c.routeCands[:0]
		for _, g := range c.activeGroups {
			cands = append(cands, g.candidate())
		}
		c.routeCands = cands
		idx := c.router.Route(r, cands)
		if idx < 0 || idx >= len(cands) {
			return fmt.Errorf("cluster: router %s chose candidate %d of %d",
				c.router.Name(), idx, len(cands))
		}
		target = c.activeGroups[idx]
	}
	if target == nil {
		return fmt.Errorf("cluster: no live groups to dispatch request %d to", r.ID)
	}
	if c.tracer != nil {
		c.tracer.Emit(obs.Event{Phase: obs.PhaseInstant, Time: c.Sim.Now(),
			Cat: obs.CatDispatch, Name: c.router.Name(),
			Group: obs.GroupCluster, Track: "dispatch", Req: r.ID,
			Args: [2]obs.Arg{
				{Key: "group", Val: int64(target.ID)},
				{Key: "candidates", Val: int64(ncands)},
			}})
	}
	target.Enqueue(r)
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

// DemandBytes returns cluster-wide KV memory demand in bytes. O(d) in
// groups whose demand changed since the last sync: the total is folded
// from the engines' edge-triggered load notifications (a closing group's
// engine zeroes its contribution), so the monitor's per-tick read no
// longer walks the fleet. TestClusterDemandTotalInvariant pins it to the
// ground-truth walk.
func (c *Cluster) DemandBytes() int64 {
	c.syncDemand()
	return c.totalDemandTokens * c.Model.KVBytesPerToken()
}

// demandTokensWalk recomputes the demand total by walking the open groups
// (the invariant tests' oracle for the incremental DemandBytes).
func (c *Cluster) demandTokensWalk() int64 {
	var tokens int64
	for _, g := range c.groups {
		if !g.Closed() {
			tokens += int64(g.DemandTokens())
		}
	}
	return tokens
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

// UsedBytes returns allocated KV bytes cluster-wide.
func (c *Cluster) UsedBytes() int64 {
	var tokens int64
	for _, g := range c.groups {
		if !g.Closed() {
			tokens += int64(g.UsedTokens())
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
		c.Sim.After(c.monitorInterval, "monitor", c.tickFn)
	}
}

// Serve dispatches the trace and runs the simulation until horizon (or
// until the event queue drains past it). It returns the collector for
// analysis. Callers should consult Err afterwards: requests that found no
// live group to dispatch to are dropped from the run and reported there
// rather than panicking mid-simulation.
func (c *Cluster) Serve(tr *workload.Trace, horizon sim.Time) *metrics.Collector {
	c.outstanding = len(tr.Requests)
	if c.lazyArrivals {
		// Streaming mode: each arrival schedules its successor, so the
		// event queue holds O(1) arrival events instead of the whole
		// trace. Event sequence numbers differ from the eager default,
		// which reorders same-timestamp ties — that is why the default
		// (byte-identical) path still pre-schedules everything.
		c.scheduleArrival(tr, 0)
	} else {
		for i := range tr.Requests {
			wr := &tr.Requests[i]
			c.Sim.AtCall(wr.Arrival, "arrive", c.admitFn, wr)
		}
	}
	c.Sim.After(c.monitorInterval, "monitor", c.tickFn)
	c.Sim.RunUntil(horizon)
	c.horizonReached = true
	return c.Collector
}

// scheduleArrival queues trace request i's arrival event; its callback
// chains the next one (lazy-arrival mode).
func (c *Cluster) scheduleArrival(tr *workload.Trace, i int) {
	if i >= len(tr.Requests) {
		return
	}
	wr := &tr.Requests[i]
	c.Sim.At(wr.Arrival, "arrive", func() {
		c.scheduleArrival(tr, i+1)
		c.admitArrival(wr)
	})
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
// (the physical copy is the exchange engine's job); requests whose KV does
// not fit are preempted for recompute; waiting requests join the queue in
// order.
func TransplantRequests(dst *Group, running, waiting []*request.Request, stalled map[int]*request.Request) {
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
		if s, ok := stalled[r.ID]; ok && s != nil {
			dst.exec.RestoreStalled(r)
		}
	}
	for _, r := range waiting {
		r.GroupID = dst.ID
		dst.Queue().Push(r)
		// Direct discipline pushes bypass Enqueue's demand accounting.
		dst.exec.AccountQueuedDemand(r)
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

// Seq re-exported types for policies.
type (
	// Seq aliases the KV sequence type for policy implementations.
	Seq = kvcache.Seq
)
