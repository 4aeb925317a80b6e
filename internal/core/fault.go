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
	p.failed[instanceID] = true
	p.reconfiguring = true
	g.Drain(func() { p.recoverGroup(c, g, instanceID) })
	return nil
}

func (p *Policy) recoverGroup(c *cluster.Cluster, g *cluster.Group, deadID int) {
	running, waiting := g.ExtractRequests()
	insts := g.Instances()
	c.RemoveGroup(g)

	// Every in-flight request lost the dead node's KV shard: recompute.
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

	// Survivors restore to full copies from the host DRAM replica; the
	// PCIe reload gates their return to service.
	var survivors []*cluster.Group
	var maxReload sim.Duration
	for _, in := range insts {
		if in.ID == deadID {
			continue
		}
		if missing := in.Model.Layers - in.LayersHeld(); missing > 0 {
			bytes := in.LayerTransferBytes(missing)
			pcie := in.Spec.PCIeBandwidth * float64(in.Model.GPUsPerInstance)
			reload := sim.DurationFromSeconds(float64(bytes) / pcie)
			if reload > maxReload {
				maxReload = reload
			}
			if _, err := in.RestoreLayers(missing); err != nil {
				panic(fmt.Sprintf("kunserve: recovery restore on %d: %v", in.ID, err))
			}
		}
		ng, err := c.NewGroup([]int{in.ID})
		if err != nil {
			panic(fmt.Sprintf("kunserve: recovery group: %v", err))
		}
		survivors = append(survivors, ng)
	}
	if len(survivors) == 0 {
		// The dead node's group had no other members; its requests go
		// back through the dispatcher to the remaining cluster.
		if len(c.Groups()) > 0 {
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
	c.Sim.After(maxReload, "failover-reload", func() {
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
