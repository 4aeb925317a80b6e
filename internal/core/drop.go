package core

import (
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/core/lookahead"
	"kunserve/internal/core/planner"
	"kunserve/internal/costmodel"
	"kunserve/internal/network"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// newLookaheadFormer adapts the lookahead former to the cluster interface.
// The cost model is read-only, so one policy's Former serves all its
// groups, each forming into its engine's own scratch.
func newLookaheadFormer(m *costmodel.Model, minTokens int) cluster.Former {
	return &lookahead.Former{Model: m, MinTokens: minTokens}
}

// maybeDrop checks the overload condition and, when triggered, derives and
// executes a drop plan. It returns true when a reconfiguration started.
func (p *Policy) maybeDrop(c *cluster.Cluster) bool {
	if p.opts.DisableDrop {
		return false
	}
	demand := c.DemandBytes()
	capacity := c.CapacityBytes()
	if float64(demand) <= float64(capacity)*p.opts.OverloadThreshold {
		return false
	}
	groups := c.Groups()
	if len(groups) < 2 {
		return false // nothing to merge; fallback handles pressure
	}
	// R is the memory requirement of the queued requests (§4.1, Figure 6
	// input) plus the committed overshoot of admitted work. Requiring a
	// queued backlog also stops drop cascades: once a drop has absorbed
	// the queue, demand alone does not trigger deeper merges.
	var queuedTokens int64
	for _, g := range groups {
		for _, r := range g.WaitingRequests() {
			queuedTokens += int64(r.TotalTokens())
		}
	}
	if queuedTokens == 0 {
		return false
	}
	required := queuedTokens * c.Model.KVBytesPerToken()
	if over := demand - capacity; over > 0 {
		required += over
	}
	required += int64(float64(capacity) * p.opts.FreeHeadroom)

	// Memory left unmapped by earlier bounded drops is claimed first —
	// extending a live group's KVCache needs no cooperation at all.
	required -= p.extendExistingGroups(c, required)
	if required <= 0 {
		return true
	}

	states := make([]planner.GroupState, len(groups))
	for i, g := range groups {
		states[i] = planner.GroupState{ID: g.ID, Size: g.Stages()}
	}
	plan, err := planner.DeriveCapped(states, c.Model.ParamBytes(), required, p.opts.MaxStages)
	if err != nil && plan == nil {
		return false
	}
	// On ErrInfeasible the best-effort plan still executes; continued
	// pressure is absorbed by the recompute fallback and, in a real
	// deployment, autoscaling (§6).
	changed := plan.Changed()
	if len(changed) == 0 {
		return false
	}
	p.reconfiguring = true
	p.events = append(p.events, Event{
		Kind:  "drop",
		Start: c.Sim.Now(),
	})
	eventIdx := len(p.events) - 1
	// Figure 6 semantics: a merge drops the whole duplicated copy and the
	// local managers map all of it into KVCache (requiredKV < 0 =
	// unbounded) — the burst's continued growth is absorbed without
	// another reconfiguration.
	pending := len(changed)
	for _, m := range changed {
		m := m
		p.executeMerge(c, m, -1, func(freed int64, evictedCached int) {
			p.events[eventIdx].FreedBytes += freed
			p.events[eventIdx].EvictedCachedBlocks += evictedCached
			pending--
			if pending == 0 {
				p.events[eventIdx].End = c.Sim.Now()
				p.events[eventIdx].Groups = len(c.Groups())
				p.reconfiguring = false
				p.traceEvent(c, eventIdx)
			}
		})
	}
	return true
}

// extendExistingGroups claims unmapped instance memory (left by earlier
// bounded drops) for live groups' KVCache, returning the bytes claimed.
func (p *Policy) extendExistingGroups(c *cluster.Cluster, required int64) int64 {
	var claimed int64
	perLayer := c.Model.KVBytesPerTokenPerLayer()
	for _, g := range c.Groups() {
		if claimed >= required {
			break
		}
		// Every stage must hold its layers' share of each new token, so
		// the addable tokens are bounded by the tightest member.
		tokens := -1
		for _, in := range g.Instances() {
			t := int(in.FreeBytes() / (perLayer * int64(in.LayersHeld())))
			if tokens < 0 || t < tokens {
				tokens = t
			}
		}
		if need := int((required - claimed) / c.Model.KVBytesPerToken()); tokens > need {
			tokens = need
		}
		blocks := tokens / g.Pool().BlockTokens()
		if blocks <= 0 {
			continue
		}
		tokens = blocks * g.Pool().BlockTokens()
		ok := true
		for _, in := range g.Instances() {
			grow := perLayer * int64(in.LayersHeld()) * int64(tokens)
			if _, err := in.ExtendKV(grow); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		g.Pool().AddBlocks(blocks)
		claimed += int64(tokens) * c.Model.KVBytesPerToken()
	}
	return claimed
}

// executeMerge drains the groups of one merge, reshapes layers, builds the
// pipelined successor group, transplants requests, and launches the KVCache
// exchange. done receives the parameter bytes freed and the cached prefix
// blocks that died with the dissolved pools.
func (p *Policy) executeMerge(c *cluster.Cluster, m planner.Merge, requiredKV int64, done func(freed int64, evictedCached int)) {
	groups := make([]*cluster.Group, 0, len(m.GroupIDs))
	for _, id := range m.GroupIDs {
		g := c.GroupByID(id)
		if g == nil {
			panic(fmt.Sprintf("kunserve: plan references dead group %d", id))
		}
		groups = append(groups, g)
	}
	remaining := len(groups)
	onDrained := func() {
		remaining--
		if remaining > 0 {
			return
		}
		p.mergeDrained(c, groups, requiredKV, done)
	}
	for _, g := range groups {
		g.Drain(onDrained)
	}
}

func (p *Policy) mergeDrained(c *cluster.Cluster, groups []*cluster.Group, requiredKV int64, done func(freed int64, evictedCached int)) {
	// Collect member instances in stage order and their old group sizes
	// (for exchange-volume accounting).
	type carried struct {
		running []*request.Request
		oldSize int
		srcID   int // a representative source instance for the transfer
	}
	var insts []int
	var carry []carried
	var freed int64

	var waiting []*request.Request
	stalledAll := make(map[int]*request.Request)
	for _, g := range groups {
		run, wait, stalled := g.ExtractRequests()
		carry = append(carry, carried{
			running: run,
			oldSize: g.Stages(),
			srcID:   g.Instances()[0].ID,
		})
		waiting = append(waiting, wait...)
		for id, r := range stalled {
			stalledAll[id] = r
		}
		for _, in := range g.Instances() {
			insts = append(insts, in.ID)
		}
		c.RemoveGroup(g)
	}

	split := planner.SplitLayers(c.Model.Layers, len(insts))
	// The plan frees one parameter copy, but only the R-share of it is
	// mapped into KVCache now; the surplus stays unmapped and is claimed
	// by extendExistingGroups if demand keeps growing. Each new token
	// costs every stage its per-layer share, so the per-instance KV
	// growth is proportional to the layers it keeps.
	growTokens := int64(0)
	if requiredKV > 0 {
		growTokens = requiredKV / c.Model.KVBytesPerToken()
	}
	perLayer := c.Model.KVBytesPerTokenPerLayer()
	var maxRemap sim.Duration
	for i, id := range insts {
		in := c.Instances[id]
		dropN := in.LayersHeld() - split[i]
		if dropN <= 0 {
			continue
		}
		dropped := in.Model.ParamBytesPerLayer() * int64(dropN)
		freed += dropped
		kvGrow := dropped // unbounded: map the whole share
		if requiredKV >= 0 {
			kvGrow = perLayer * int64(split[i]) * growTokens
		}
		d, err := in.DropLayersBounded(dropN, kvGrow)
		if err != nil {
			panic(fmt.Sprintf("kunserve: drop on instance %d: %v", id, err))
		}
		if d > maxRemap {
			maxRemap = d
		}
	}

	ng, err := c.NewGroup(insts)
	if err != nil {
		panic(fmt.Sprintf("kunserve: merged group: %v", err))
	}
	newSize := len(insts)
	for _, cr := range carry {
		cluster.TransplantRequests(ng, cr.running, nil, stalledAll)
		// §4.2: ongoing requests' KVCache is coupled to the dropped
		// layers; exchange it between group members before they can
		// execute. New/queued requests are unaffected.
		p.startExchange(c, ng, cr.running, cr.oldSize, newSize, cr.srcID)
	}
	cluster.TransplantRequests(ng, nil, waiting, nil)

	// The merged pool starts cold: whatever prefix blocks the dissolved
	// pools still cached (including blocks the transplants just freed
	// into them) are destroyed by the reshape.
	evictedCached := 0
	for _, g := range groups {
		evictedCached += g.Pool().CachedBlocks()
	}

	// The remap (cuMemUnmap/cuMemMap pass) gates the first post-drop
	// round (§4.1: ~5 ms, negligible vs inference).
	c.Sim.After(maxRemap, "drop-remap", func() {
		ng.Wake()
		done(freed, evictedCached)
	})
}

// startExchange stalls the carried requests and transfers the displaced
// fraction of their KVCache from the source instance, unstalling them when
// the last byte lands.
func (p *Policy) startExchange(c *cluster.Cluster, g *cluster.Group,
	reqs []*request.Request, oldSize, newSize, srcID int) {
	var stall []*request.Request
	var tokens int64
	for _, r := range reqs {
		// Requests that lost their sequence were requeued by the
		// transplant; only live ones exchange.
		if r.State() == request.StateRunning && r.Seq != nil && !g.IsStalled(r) {
			stall = append(stall, r)
			tokens += int64(r.Seq.Tokens())
		}
	}
	if len(stall) == 0 {
		return
	}
	// Fraction of each token's per-layer KV that now lives on the wrong
	// instance: the layers this source gave away.
	frac := 1 - float64(oldSize)/float64(newSize)
	bytes := int64(float64(tokens*c.Model.KVBytesPerToken()) * frac)
	if bytes <= 0 {
		return
	}
	for _, r := range stall {
		g.Stall(r, request.StateExchanging)
	}
	finish := func() {
		for _, r := range stall {
			if r.State() == request.StateExchanging {
				g.Unstall(r)
			}
		}
	}
	egress := c.Fabric.Egress(srcID)
	if p.opts.DisableCoordinatedExchange {
		// Ablation: one monolithic transfer monopolizes the NIC and
		// blocks pipeline activations behind it.
		egress.Send(bytes, network.PriorityBulk, "exchange", finish)
		return
	}
	egress.SendChunked(bytes, p.opts.ExchangeChunkBytes, network.PriorityBulk,
		"exchange", finish)
}

// KVExchangeSeconds estimates the stall for a given token volume — used by
// experiments to report exchange cost (§4.2's 1–2 s on 200 Gbps).
func KVExchangeSeconds(c *cluster.Cluster, tokens int64, frac float64) float64 {
	bytes := float64(tokens*c.Model.KVBytesPerToken()) * frac
	return bytes / c.Fabric.Egress(0).Bandwidth()
}
