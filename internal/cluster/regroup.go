package cluster

import (
	"fmt"

	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// Regroup is the one reconfiguration path: it dissolves the old groups and
// forms one new group per shape (instance IDs in stage order). Every
// reconfiguration goes through it: a drop merges groups, a restore splits
// one, a failover regroups a failed group's survivors, and static
// pipeline parallelism forms its groups at setup.
//
// It drains every old group and, once the last one is idle (at once when
// there are none), extracts each group's requests and removes the group,
// in order. It then moves each instance of each shape to its stage's
// share of the model's layers (splitLayers), dropping layers where the
// instance holds more than its share and restoring them where it holds
// fewer, and forms that shape's group. Finally then, unless nil, receives
// the new groups in shape order, each old group's running requests
// (stalled ones still stalled), every old group's waiting requests in
// order, and the longest layer remap. The caller decides where requests
// go, which transfers run, and when the new groups wake.
//
// Regroup returns an error, and drains nothing, when an old group is
// closed or already draining, or a shape is empty, names an unknown
// instance or has more stages than the model has layers. With no old
// groups the regroup runs before Regroup returns, and a failed layer move
// or group formation is returned too; once draining has begun, such a
// failure panics.
func (c *Cluster) Regroup(old []*Group, shapes [][]int,
	then func(groups []*Group, running [][]*request.Request, waiting []*request.Request, remap sim.Duration)) error {
	for _, g := range old {
		if g.Closed() || g.Draining() {
			return fmt.Errorf("cluster: regroup: group %d is closed or draining", g.ID)
		}
	}
	for _, ids := range shapes {
		if len(ids) == 0 || len(ids) > c.Model.Layers {
			return fmt.Errorf("cluster: regroup: %d stages for %d layers", len(ids), c.Model.Layers)
		}
		for _, id := range ids {
			if id < 0 || id >= len(c.Instances) {
				return fmt.Errorf("cluster: regroup: instance id %d out of range", id)
			}
		}
	}
	if len(old) == 0 {
		return c.reshape(old, shapes, then)
	}
	pending := len(old)
	for _, g := range old {
		g.Drain(func() {
			if pending--; pending > 0 {
				return
			}
			if err := c.reshape(old, shapes, then); err != nil {
				panic(fmt.Sprintf("cluster: regroup: %v", err))
			}
		})
	}
	return nil
}

// reshape is Regroup once the old groups are idle.
func (c *Cluster) reshape(old []*Group, shapes [][]int,
	then func([]*Group, [][]*request.Request, []*request.Request, sim.Duration)) error {
	running := make([][]*request.Request, len(old))
	var waiting []*request.Request
	for i, g := range old {
		run, wait := g.ExtractRequests()
		running[i] = run
		waiting = append(waiting, wait...)
		c.removeGroup(g)
	}
	groups := make([]*Group, len(shapes))
	var remap sim.Duration
	for i, ids := range shapes {
		for j, share := range splitLayers(c.Model.Layers, len(ids)) {
			in := c.Instances[ids[j]]
			var d sim.Duration
			var err error
			switch held := in.LayersHeld(); {
			case held > share:
				d, err = in.DropLayers(held - share)
			case held < share:
				d, err = in.RestoreLayers(share - held)
			}
			if err != nil {
				return err
			}
			remap = max(remap, d)
		}
		g, err := c.NewGroup(ids)
		if err != nil {
			return err
		}
		groups[i] = g
	}
	if then != nil {
		then(groups, running, waiting, remap)
	}
	return nil
}

// splitLayers assigns layers contiguous, near-equal shares across n
// pipeline stages. The first layers%n stages get one extra layer.
func splitLayers(layers, n int) []int {
	if layers <= 0 || n <= 0 || n > layers {
		panic(fmt.Sprintf("cluster: splitLayers(%d, %d)", layers, n))
	}
	out := make([]int, n)
	base, extra := layers/n, layers%n
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}
