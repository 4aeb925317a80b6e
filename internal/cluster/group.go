package cluster

import (
	"fmt"

	"kunserve/internal/batching"
	"kunserve/internal/cluster/engine"
	"kunserve/internal/gpu"
	"kunserve/internal/instance"
	"kunserve/internal/kvcache"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
)

// Group is the unit of execution: one or more instances that together hold
// a complete copy of the model. A singleton group runs on its instance's
// timer; a multi-instance group (after a parameter drop, or the static PP
// baseline) runs through a pipeline engine.
//
// Scheduling rounds — admission in the wait-queue discipline's order,
// iteration forming with chunked prefill, KVCache reservation (invoking
// the policy under memory pressure), execution, token bookkeeping — are
// run by the group's role-aware execution engine (internal/cluster/
// engine), embedded so its request-set operations (Enqueue, Stall,
// Victim, Drain, the counters) are the group's own; Group adds what
// needs the cluster, the pool or the instances. The group's Role selects
// which steps a round runs: Collocated (the default) serves the full
// lifecycle, Prefill serves prompts and hands completed prefills off,
// Decode serves generation over handed-off KV. Set it through
// Group.SetRole, which checks that a prefill role has a policy to hand
// completed prefills to.
type Group struct {
	ID int
	*engine.Engine

	cl        *Cluster
	instances []*instance.Instance
	pipe      *pipeline.Engine
	pool      *kvcache.Pool

	// idxDirty marks the group as queued on the cluster's dirty list for
	// an index key refresh (set by the first load/capacity change since
	// the last sync, cleared by the flush).
	idxDirty bool
}

// newGroup wires a group over instances that must already hold the layer
// split the caller intends (full copies for singletons, complementary
// shards for pipelines).
func newGroup(id int, cl *Cluster, insts []*instance.Instance) (*Group, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("cluster: empty group")
	}
	totalLayers := 0
	for _, in := range insts {
		if in.LayersHeld() <= 0 {
			return nil, fmt.Errorf("cluster: instance %d holds no layers", in.ID)
		}
		totalLayers += in.LayersHeld()
	}
	m := insts[0].Model
	if totalLayers != m.Layers {
		return nil, fmt.Errorf("cluster: group layers %d != model layers %d",
			totalLayers, m.Layers)
	}
	g := &Group{
		ID:        id,
		cl:        cl,
		instances: insts,
	}
	// Token capacity is bounded by the tightest stage: each stage holds
	// its layers' share of every token's KV.
	capTokens := -1
	for _, in := range insts {
		c := in.KVTokenCapacity(in.LayersHeld())
		if capTokens < 0 || c < capTokens {
			capTokens = c
		}
	}
	g.pool = kvcache.NewPool(capTokens/cl.BlockTokens, cl.BlockTokens)
	// Reconfiguration resizes live pools (a drop grows the merged group's
	// pool, a restore shrinks it back); capacity feeds the least-loaded
	// routing key, so resizes queue an index refresh like demand deltas do.
	g.pool.SetResizeHook(func() { cl.markDirty(g) })
	if cl.PrefixCaching {
		g.pool.EnableSharing(cl.cacheEvict)
	}
	if cl.tracer != nil {
		g.pool.SetTracer(cl.tracer, cl.Sim.Now, id)
	}

	var timer *gpu.Timer
	if len(insts) == 1 {
		timer = insts[0].Timer()
	} else {
		stages := make([]*pipeline.Stage, len(insts))
		for i, in := range insts {
			stages[i] = &pipeline.Stage{Timer: in.Timer(), Egress: cl.Fabric.Egress(in.ID)}
		}
		g.pipe = pipeline.New(cl.Sim, stages, int64(m.HiddenDim)*m.BytesPerParam)
	}
	g.Engine = engine.New(engine.Options{
		GroupID:    id,
		Sim:        cl.Sim,
		Pool:       g.pool,
		Timer:      timer,
		Pipeline:   g.pipe,
		Queue:      cl.newDiscipline(),
		Collector:  cl.Collector,
		Budget:     cl.Budget,
		Depth:      len(insts),
		RetryDelay: RetryRoundDelay,
		Tracer:     cl.tracer,
		Req:        cl.reqTrack,
		Callbacks: engine.Callbacks{
			BeforeAdmit:    func() { cl.Policy.BeforeAdmit(g) },
			HandlePressure: func(need int) bool { return cl.Policy.HandlePressure(g, need) },
			Form: func(s *batching.Split, dec []batching.Decode, items []batching.Item, stages int) []batching.Microbatch {
				return cl.Policy.Former().Form(s, dec, items, stages)
			},
			Finished: cl.requestFinished,
			Handoff: func(r *request.Request) bool {
				pf, ok := cl.Policy.(PrefillFinisher)
				if !ok {
					return false
				}
				return pf.HandoffPrefill(g, r)
			},
			LoadChanged: func() { cl.noteLoadChanged(g) },
		},
	})
	return g, nil
}

// Cluster returns the owning cluster.
func (g *Group) Cluster() *Cluster { return g.cl }

// Instances returns the member instances in stage order.
func (g *Group) Instances() []*instance.Instance { return g.instances }

// SetRole assigns the group's execution role. It must be called during
// policy Setup, before any request reaches the group, and a Prefill role
// requires the cluster's policy to implement PrefillFinisher (something
// has to take the completed prefills). The role decides whether the
// group admits arrivals, so it decides the group's place in the dispatch
// index.
func (g *Group) SetRole(role engine.Role) error {
	if role == engine.RolePrefill {
		if _, ok := g.cl.Policy.(PrefillFinisher); !ok {
			return fmt.Errorf("cluster: policy %s cannot serve a prefill-role group (no PrefillFinisher)",
				g.cl.Policy.Name())
		}
	}
	if err := g.Engine.SetRole(role); err != nil {
		return err
	}
	if g.admitsArrivals() {
		g.cl.index.Update(g.candidate())
	} else {
		g.cl.index.Remove(g.ID)
	}
	return nil
}

// admitsArrivals reports whether the dispatcher may route to the group: it
// is open and its role takes new requests.
func (g *Group) admitsArrivals() bool {
	return !g.Closed() && g.Role().AdmitsNewArrivals()
}

// Stages returns the pipeline depth (1 = plain execution).
func (g *Group) Stages() int { return len(g.instances) }

// Pool returns the group's KV block pool.
func (g *Group) Pool() *kvcache.Pool { return g.pool }

// Pipeline returns the pipeline engine (bubble metrics), nil for singletons.
func (g *Group) Pipeline() *pipeline.Engine { return g.pipe }

// UsedTokens returns tokens of KV currently allocated.
func (g *Group) UsedTokens() int {
	return g.pool.UsedBlocks() * g.pool.BlockTokens()
}

// CapacityTokens returns the pool capacity in tokens.
func (g *Group) CapacityTokens() int {
	return g.pool.TotalBlocks() * g.pool.BlockTokens()
}
