// Package core implements KunServe: parameter-centric memory management for
// LLM serving (§3–§4). On memory overloading the policy derives a drop plan
// (internal/core/planner), merges serving groups into pipeline-parallel
// groups whose instances release duplicated parameter layers to KVCache
// (§4.1), exchanges ongoing requests' KVCache between group members with
// activation-prioritized chunked transfers (§4.2), schedules pipelined
// execution with the lookahead cost-balanced microbatch former
// (internal/core/lookahead, §4.3), and restores parameters once demand
// subsides (§4.4). When dropping cannot free enough memory it falls back to
// the KVCache-centric recompute path.
package core

import (
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/core/lookahead"
	"kunserve/internal/costmodel"
	"kunserve/internal/instance"
	"kunserve/internal/obs"
	"kunserve/internal/sim"
)

// The paper's policy settings. Each has one value in every experiment.
const (
	// overloadThreshold is the demand/capacity ratio that triggers a
	// drop. Proactive ("has suffered or is about to suffer", §3): with
	// KVCache provisioned at ~2x average demand, baseline sits near 0.5,
	// so 0.7 fires early in a burst without false-triggering in steady
	// state.
	overloadThreshold = 0.70
	// freeHeadroom over-frees beyond the deficit (a fraction of
	// capacity) so the next wave does not immediately re-trigger.
	freeHeadroom = 0.10
	// restoreThreshold is the usage fraction of *restored* capacity
	// below which parameters are restored (the paper uses 50%).
	restoreThreshold = 0.50
	// restoreHoldoff is the minimum time a drop stays in effect before
	// restoration is considered, so a brief post-drop lull does not
	// bounce the cluster straight back.
	restoreHoldoff = 20 * sim.Second
	// exchangeChunkBytes sizes coordinated-exchange chunks so one chunk
	// transfers in about a pipeline-stage time.
	exchangeChunkBytes = 256 << 20
	// maxStages bounds merged-group pipeline depth: Figure 5 shows every
	// extra stage costs latency, so the planner prefers wide shallow
	// merges and falls back to KVCache-centric handling beyond the cap.
	maxStages = 2
)

// Options select the Figure 14 ablation rungs and Figure 16's
// "KunServe w/o restore"; the zero value is the full policy.
type Options struct {
	// DisableCoordinatedExchange sends KVCache exchanges as monolithic
	// transfers that block activations (ablation rung 2).
	DisableCoordinatedExchange bool
	// UseTokenCountFormer replaces lookahead with token-count splitting
	// (ablation rung 3 removed).
	UseTokenCountFormer bool
	// DisableRestore keeps groups pipelined forever (Figure 16's
	// "KunServe w/o restore").
	DisableRestore bool
}

// Event records one reconfiguration for the experiment timelines (Figure 16
// grey boxes, Figure 17 drop markers).
type Event struct {
	Kind  string // "drop" or "restore"
	Start sim.Time
	End   sim.Time
	// Groups is the number of serving groups after the event.
	Groups int
	// FreedBytes is the parameter memory moved to (or reclaimed from)
	// KVCache.
	FreedBytes int64
	// EvictedCachedBlocks counts freed-but-cached prefix blocks this
	// reconfiguration destroyed: blocks evicted when a restore shrank the
	// pool to take parameter memory back, or blocks that died with the
	// pools a drop merge dissolved. Zero (and omitted from JSON) when
	// prefix caching is off.
	EvictedCachedBlocks int `json:",omitempty"`
}

// Policy is the KunServe overload handler.
type Policy struct {
	cluster.BasePolicy
	opts Options

	costModel *costmodel.Model
	former    cluster.Former

	reconfiguring bool
	events        []Event
	failed        []bool // indexed by instance ID
}

// New creates the policy.
func New(opts Options) *Policy {
	return &Policy{opts: opts}
}

// Name implements cluster.Policy.
func (p *Policy) Name() string { return "KunServe" }

// Events returns the reconfiguration log.
func (p *Policy) Events() []Event { return p.events }

// Drops counts completed parameter drops.
func (p *Policy) Drops() int { return p.countEvents("drop") }

// Restores counts completed restorations.
func (p *Policy) Restores() int { return p.countEvents("restore") }

func (p *Policy) countEvents(kind string) int {
	n := 0
	for _, e := range p.events {
		if e.Kind == kind && e.End > 0 {
			n++
		}
	}
	return n
}

// beginEvent opens a reconfiguration event of the given kind and returns
// its index. The policy reconfigures until endEvent closes it.
func (p *Policy) beginEvent(c *cluster.Cluster, kind string) int {
	p.reconfiguring = true
	p.events = append(p.events, Event{Kind: kind, Start: c.Sim.Now()})
	return len(p.events) - 1
}

// liveGroups counts the cluster's live groups without copying them.
func liveGroups(c *cluster.Cluster) int {
	n := 0
	c.EachGroup(func(*cluster.Group) { n++ })
	return n
}

// endEvent closes event i once its new groups serve: it records the end
// and the group count, ends the reconfiguration, and emits the event as a
// duration slice on the cluster's reconfig track.
func (p *Policy) endEvent(c *cluster.Cluster, i int) {
	ev := &p.events[i]
	ev.End = c.Sim.Now()
	ev.Groups = liveGroups(c)
	p.reconfiguring = false
	tr := c.Tracer()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{Phase: obs.PhaseComplete, Time: ev.Start,
		Dur: ev.End.Sub(ev.Start), Cat: obs.CatCore, Name: ev.Kind,
		Group: obs.GroupCluster, Track: "reconfig", Req: obs.ReqNone,
		Args: [2]obs.Arg{
			{Key: "freed_bytes", Val: ev.FreedBytes},
			{Key: "groups", Val: int64(ev.Groups)},
		}})
}

// CostModel returns the fitted Eq. 1 model (available after Setup).
func (p *Policy) CostModel() *costmodel.Model { return p.costModel }

// Setup implements cluster.Policy: DP groups plus the offline cost-model
// fitting profile (§4.3).
func (p *Policy) Setup(c *cluster.Cluster) error {
	if err := cluster.SetupDP(c); err != nil {
		return err
	}
	m, err := costmodel.FitFromTimer(c.Instances[0].Timer())
	if err != nil {
		return fmt.Errorf("kunserve: offline profiling: %w", err)
	}
	p.costModel = m
	p.failed = make([]bool, len(c.Instances))
	if p.opts.UseTokenCountFormer {
		p.former = cluster.TokenCountFormer{}
	} else {
		// The cost model is read-only, so one policy's Former serves all
		// its groups, each forming into its engine's own scratch.
		p.former = &lookahead.Former{Model: m}
	}
	return nil
}

// Former implements cluster.Policy.
func (p *Policy) Former() cluster.Former { return p.former }

// HandlePressure implements the §4.1 fallback: when dropping cannot help
// (or is already in flight), recompute like vLLM so execution continues.
func (p *Policy) HandlePressure(g *cluster.Group, need int) bool {
	v := g.Victim()
	if v == nil {
		return false
	}
	g.PreemptRecompute(v)
	return true
}

// OnTick implements the monitor-driven control loop (Figure 4 ➀).
func (p *Policy) OnTick(c *cluster.Cluster) {
	if p.reconfiguring {
		return
	}
	if p.maybeDrop(c) {
		return
	}
	p.maybeRestore(c)
}

// singletonCapacityTokens returns one instance's KV token capacity when
// holding a full parameter copy (the restore target): its current KV
// region minus the memory the missing layers will take back. This respects
// the deployment's KV provisioning.
func singletonCapacityTokens(in *instance.Instance) int {
	missingParams := in.Model.ParamBytes() - in.ParamBytes()
	// Restoration claims unmapped memory (HBM outside the KVCache
	// provision that no drop has claimed) first; only the remainder comes
	// out of the KVCache region.
	fromKV := missingParams - in.FreeBytes()
	if fromKV < 0 {
		fromKV = 0
	}
	kv := in.KVBytes() - fromKV
	if kv < 0 {
		kv = 0
	}
	return int(kv / in.Model.KVBytesPerToken())
}
