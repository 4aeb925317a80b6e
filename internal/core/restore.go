package core

import (
	"kunserve/internal/cluster"
	"kunserve/internal/network"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// maybeRestore checks §4.4's condition — KVCache usage below the restore
// threshold of the *restored* (non-dropped) capacity — and restores one
// pipelined group per tick. The parameter pull overlaps normal serving at
// PriorityParameter (below activations, above bulk); only the final split
// requires a brief drain.
func (p *Policy) maybeRestore(c *cluster.Cluster) {
	if p.opts.DisableRestore || p.reconfiguring {
		return
	}
	// Hysteresis: hold the dropped configuration for a while before
	// restoring, or a momentary lull bounces the cluster back and forth.
	for _, e := range p.events {
		if e.Kind == "drop" && c.Sim.Now().Sub(e.End) < restoreHoldoff {
			return
		}
	}
	// One restoration per tick: the first eligible group. It starts after
	// the walk because a restoration may regroup synchronously.
	var target *cluster.Group
	c.EachGroup(func(g *cluster.Group) {
		if target != nil || g.Stages() < 2 {
			return
		}
		restoredCap := 0
		for _, in := range g.Instances() {
			restoredCap += singletonCapacityTokens(in)
		}
		used := g.UsedTokens()
		if g.QueueLen() > 0 {
			return // queued demand: restoring now would re-trigger a drop
		}
		if float64(used) >= float64(restoredCap)*restoreThreshold {
			return
		}
		target = g
	})
	if target != nil {
		p.restoreGroup(c, target)
	}
}

// restoreGroup runs the two-phase restoration: (1) reserve the KV tail and
// pull missing layers over the network while the group keeps serving;
// (2) drain briefly, remap memory back to parameters, split into singleton
// groups and redistribute requests.
func (p *Policy) restoreGroup(c *cluster.Cluster, g *cluster.Group) {
	// Phase 0: shrink the pool now so arriving requests cannot occupy
	// the memory the parameters will need. Abort if the tail is not
	// free (usage raced upward).
	targetCap := 0
	for _, in := range g.Instances() {
		targetCap += singletonCapacityTokens(in)
	}
	removeBlocks := g.Pool().TotalBlocks() - targetCap/g.Pool().BlockTokens()
	evictedCached := 0
	if removeBlocks > 0 {
		// The shrink evicts freed-but-cached prefix blocks before it
		// fails: restoration outranks the warm cache, but what it
		// destroyed is reported on the event.
		ev, err := g.Pool().RemoveBlocksEvicting(removeBlocks)
		if err != nil {
			return
		}
		evictedCached = ev
	}
	eventIdx := p.beginEvent(c, "restore")
	p.events[eventIdx].EvictedCachedBlocks = evictedCached

	// Phase 1: pull missing layers, overlapped with serving. Parameters
	// come from peer instances whenever possible (§4.4); each member
	// pulls its missing layers as a chunked transfer at parameter
	// priority on its own NIC.
	pulls := 0
	var restoredBytes int64
	onePullDone := func() {
		if pulls--; pulls == 0 {
			p.split(c, g, eventIdx)
		}
	}
	for _, in := range g.Instances() {
		missing := in.Model.Layers - in.LayersHeld()
		if missing <= 0 {
			continue
		}
		bytes := in.LayerTransferBytes(missing)
		restoredBytes += bytes
		pulls++
		c.Fabric.Egress(in.ID).SendChunked(bytes, exchangeChunkBytes,
			network.PriorityParameter, nil, onePullDone)
	}
	p.events[eventIdx].FreedBytes = -restoredBytes
	if pulls == 0 {
		p.split(c, g, eventIdx)
	}
}

// split is phase 2 of a restoration: a brief drain, the remap, and one
// singleton group per member. Running requests go round-robin to the new
// groups (their KV gathers onto the owning instance, a bulk transfer that
// stalls only them), and waiting requests likewise.
func (p *Policy) split(c *cluster.Cluster, g *cluster.Group, eventIdx int) {
	shapes := make([][]int, g.Stages())
	for i, in := range g.Instances() {
		shapes[i] = []int{in.ID}
	}
	// Regroup fails only when FailInstance has taken the group while its
	// layers were in flight. The failover's recovery then owns the
	// instances and ends the reconfiguration, so the restore is abandoned
	// and its event never ends.
	_ = c.Regroup([]*cluster.Group{g}, shapes, func(groups []*cluster.Group,
		running [][]*request.Request, waiting []*request.Request, remap sim.Duration) {
		for i, r := range running[0] {
			dst := groups[i%len(groups)]
			cluster.TransplantRequests(dst, running[0][i:i+1], nil)
			if r.State() == request.StateRunning && r.Seq != nil {
				p.startGather(c, dst, r)
			}
		}
		for i, r := range waiting {
			groups[i%len(groups)].Enqueue(r)
		}

		// Whatever prefix blocks were still cached in the dissolved
		// pipeline pool (including blocks the transplants just freed into
		// it) die with it; attribute them to this restoration.
		p.events[eventIdx].EvictedCachedBlocks += g.Pool().CachedBlocks()

		c.Sim.After(remap, "restore-remap", func() {
			for _, ng := range groups {
				ng.Wake()
			}
			p.endEvent(c, eventIdx)
		})
	})
}

// startGather stalls one request while the shares of its KVCache held by
// the other former stages transfer to its new home instance.
func (p *Policy) startGather(c *cluster.Cluster, g *cluster.Group, r *request.Request) {
	tokens := int64(r.Seq.Tokens())
	if tokens == 0 {
		return
	}
	// The instance already holds 1/n of each token's KV; the rest
	// arrives from peers. Charge the dominant (largest single-source)
	// share on this instance's ingress-equivalent egress link.
	bytes := tokens * c.Model.KVBytesPerToken()
	g.Stall(r, request.StateExchanging)
	c.Fabric.Egress(g.Instances()[0].ID).SendChunked(bytes,
		exchangeChunkBytes, network.PriorityBulk, nil, func() {
			if r.State() == request.StateExchanging {
				g.Unstall(r)
			}
		})
}
