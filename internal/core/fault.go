package core

import (
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// FailInstance handles a node failure (§4.4 fault tolerance). Unlike plain
// DP serving, a failed node in KunServe can disrupt every instance of its
// pipeline-parallel group: their KVCache shards reference layers the dead
// node held. Recovery restores the surviving members to full parameter
// copies — always possible because parameters are replicated in host DRAM —
// and recomputes the group's in-flight requests.
func (p *Policy) FailInstance(c *cluster.Cluster, instanceID int) error {
	if instanceID >= 0 && instanceID < len(p.failed) && p.failed[instanceID] {
		return fmt.Errorf("kunserve: instance %d already failed", instanceID)
	}
	var g *cluster.Group
	for _, cand := range c.Groups() {
		for _, in := range cand.Instances() {
			if in.ID == instanceID {
				g = cand
				break
			}
		}
		if g != nil {
			break
		}
	}
	if g == nil {
		return fmt.Errorf("kunserve: instance %d not in any live group", instanceID)
	}
	// Survivors restore to full copies from the host DRAM replica; the
	// PCIe reload, not the remap, gates their return to service.
	var survivors [][]int
	var reload sim.Duration
	for _, in := range g.Instances() {
		if in.ID == instanceID {
			continue
		}
		survivors = append(survivors, []int{in.ID})
		if missing := in.Model.Layers - in.LayersHeld(); missing > 0 {
			pcie := in.Spec.PCIeBandwidth * float64(in.Model.GPUsPerInstance)
			reload = max(reload, sim.DurationFromSeconds(float64(in.LayerTransferBytes(missing))/pcie))
		}
	}
	// The regroup may run before Regroup returns, and its recovery ends
	// the reconfiguration.
	wasReconfiguring := p.reconfiguring
	p.reconfiguring = true
	err := c.Regroup([]*cluster.Group{g}, survivors, func(groups []*cluster.Group,
		running [][]*request.Request, waiting []*request.Request, _ sim.Duration) {
		p.recover(c, groups, running[0], waiting, reload)
	})
	if err != nil {
		p.reconfiguring = wasReconfiguring
		return fmt.Errorf("kunserve: fail instance %d: %w", instanceID, err)
	}
	p.failed[instanceID] = true
	return nil
}

// recover requeues a failed group's requests on its survivors once they
// have reloaded. Every in-flight request lost the dead node's KV shard, so
// it recomputes.
func (p *Policy) recover(c *cluster.Cluster, survivors []*cluster.Group,
	running, waiting []*request.Request, reload sim.Duration) {
	var requeue []*request.Request
	for _, r := range running {
		if r.Seq != nil {
			r.Seq.Free()
			r.Seq = nil
		}
		if r.Done() {
			continue
		}
		r.ResetForRecompute()
		if r.State() != request.StateQueued {
			r.SetState(request.StateQueued)
		}
		requeue = append(requeue, r)
	}
	requeue = append(requeue, waiting...)

	if len(survivors) == 0 {
		// The dead node's group had no other members; its requests go
		// back through the dispatcher to the remaining cluster.
		if liveGroups(c) > 0 {
			for _, r := range requeue {
				if err := c.Dispatch(r); err != nil {
					// Guarded by the live-group check above.
					panic(fmt.Sprintf("kunserve: recovery dispatch: %v", err))
				}
			}
		}
		p.reconfiguring = false
		return
	}
	for i, r := range requeue {
		survivors[i%len(survivors)].Enqueue(r)
	}
	c.Sim.After(reload, "failover-reload", func() {
		for _, ng := range survivors {
			ng.Wake()
		}
		p.reconfiguring = false
	})
}

// FailedInstances returns the IDs of failed instances in ascending order.
func (p *Policy) FailedInstances() []int {
	var out []int
	for id, dead := range p.failed {
		if dead {
			out = append(out, id)
		}
	}
	return out
}
