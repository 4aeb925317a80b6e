package core

import (
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/core/planner"
	"kunserve/internal/network"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// maybeDrop checks the overload condition and, when triggered, derives and
// executes a drop plan. It returns true when a reconfiguration started.
func (p *Policy) maybeDrop(c *cluster.Cluster) bool {
	demand := c.DemandBytes()
	capacity := c.CapacityBytes()
	if float64(demand) <= float64(capacity)*overloadThreshold {
		return false
	}
	groups := liveGroups(c)
	if groups < 2 {
		return false // nothing to merge; fallback handles pressure
	}
	// R is the memory requirement of the queued requests (§4.1, Figure 6
	// input) plus the committed overshoot of admitted work. Requiring a
	// queued backlog also stops drop cascades: once a drop has absorbed
	// the queue, demand alone does not trigger deeper merges.
	var queuedTokens int64
	c.EachGroup(func(g *cluster.Group) {
		g.Queue().Each(func(r *request.Request) {
			queuedTokens += int64(r.TotalTokens())
		})
	})
	if queuedTokens == 0 {
		return false
	}
	required := queuedTokens * c.Model.KVBytesPerToken()
	if over := demand - capacity; over > 0 {
		required += over
	}
	required += int64(float64(capacity) * freeHeadroom)

	// HBM left outside the KVCache provision (instance.NewProvisioned) is
	// claimed first — extending a live group's KVCache needs no
	// cooperation at all. The baselines never map this memory, so
	// KunServe serves with more KVCache than they do once it has been
	// claimed.
	required -= p.extendExistingGroups(c, required)
	if required <= 0 {
		return true
	}

	states := make([]planner.GroupState, 0, groups)
	c.EachGroup(func(g *cluster.Group) {
		states = append(states, planner.GroupState{ID: g.ID, Size: g.Stages()})
	})
	plan, err := planner.DeriveCapped(states, c.Model.ParamBytes(), required, maxStages)
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
	eventIdx := p.beginEvent(c, "drop")
	// Figure 6 semantics: a merge drops the whole duplicated copy and the
	// local managers map all of it into KVCache — the burst's continued
	// growth is absorbed without another reconfiguration.
	pending := len(changed)
	for _, m := range changed {
		p.merge(c, m.GroupIDs, func(freed int64, evictedCached int) {
			p.events[eventIdx].FreedBytes += freed
			p.events[eventIdx].EvictedCachedBlocks += evictedCached
			if pending--; pending == 0 {
				p.endEvent(c, eventIdx)
			}
		})
	}
	return true
}

// extendExistingGroups maps unmapped instance memory (the HBM outside the
// KVCache provision; drops leave none) into live groups' KVCache,
// returning the bytes claimed.
func (p *Policy) extendExistingGroups(c *cluster.Cluster, required int64) int64 {
	var claimed int64
	perLayer := c.Model.KVBytesPerTokenPerLayer()
	c.EachGroup(func(g *cluster.Group) {
		if claimed >= required {
			return
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
			return
		}
		tokens = blocks * g.Pool().BlockTokens()
		for _, in := range g.Instances() {
			grow := perLayer * int64(in.LayersHeld()) * int64(tokens)
			if _, err := in.ExtendKV(grow); err != nil {
				return
			}
		}
		g.Pool().AddBlocks(blocks)
		claimed += int64(tokens) * c.Model.KVBytesPerToken()
	})
	return claimed
}

// merge regroups one merge's groups into a pipelined successor, carries
// their requests over and launches the KVCache exchange. done runs once
// the layer remap has passed, with the parameter bytes freed and the
// cached prefix blocks that died with the dissolved pools.
func (p *Policy) merge(c *cluster.Cluster, ids []int, done func(freed int64, evictedCached int)) {
	groups := make([]*cluster.Group, len(ids))
	var insts []int
	for i, id := range ids {
		groups[i] = c.GroupByID(id)
		for _, in := range groups[i].Instances() {
			insts = append(insts, in.ID)
		}
	}
	// Every merged group holds a complete copy; the successor keeps one.
	freed := int64(len(groups)-1) * int64(c.Model.Layers) * c.Model.ParamBytesPerLayer()
	err := c.Regroup(groups, [][]int{insts}, func(merged []*cluster.Group,
		running [][]*request.Request, waiting []*request.Request, remap sim.Duration) {
		ng := merged[0]
		for i, run := range running {
			cluster.TransplantRequests(ng, run, nil)
			// §4.2: ongoing requests' KVCache is coupled to the dropped
			// layers; exchange it between group members before they can
			// execute. New/queued requests are unaffected.
			p.startExchange(c, ng, run, groups[i].Stages(), ng.Stages(), groups[i].Instances()[0].ID)
		}
		cluster.TransplantRequests(ng, nil, waiting)

		// The merged pool starts cold: whatever prefix blocks the dissolved
		// pools still cached (including blocks the transplants just freed
		// into them) are destroyed by the reshape.
		evictedCached := 0
		for _, g := range groups {
			evictedCached += g.Pool().CachedBlocks()
		}

		// The remap (cuMemUnmap/cuMemMap pass) gates the first post-drop
		// round (§4.1: ~5 ms, negligible vs inference).
		c.Sim.After(remap, "drop-remap", func() {
			ng.Wake()
			done(freed, evictedCached)
		})
	})
	if err != nil {
		// maybeDrop plans only while no reconfiguration is in flight, so
		// no planned group can be draining.
		panic(fmt.Sprintf("kunserve: drop: %v", err))
	}
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
		if r.State() == request.StateRunning && r.Seq != nil {
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
		egress.Send(bytes, network.PriorityBulk, finish)
		return
	}
	egress.SendChunked(bytes, exchangeChunkBytes, network.PriorityBulk, nil, finish)
}
