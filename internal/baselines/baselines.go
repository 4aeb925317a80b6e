// Package baselines implements the paper's comparison systems (§5.1) as
// overload-handling policies on the shared serving substrate:
//
//   - vLLM (DP): the default recompute mechanism — drop a victim's KVCache
//     and re-enqueue it (Figure 3 (a)).
//   - vLLM (PP): the same mechanism over statically halved parameters with
//     pairwise pipeline parallelism — more KVCache, pipelined overhead.
//   - InferCept: optimized swapping — victims' KVCache moves to host DRAM
//     with the transfer overlapped, and swaps back in when memory frees
//     (Figure 3 (b)).
//   - Llumnix: KVCache migration to the most-spare instance over the
//     scale-out network, plus load-balanced dispatch (Figure 3 (c)).
//
// All baselines carry the calibration the paper applied (chunked prefill,
// tuned block size) because they run on the identical batching engine.
package baselines

import (
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/network"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// VLLMDP is vLLM's default deployment: data-parallel full replicas,
// recompute on memory pressure.
type VLLMDP struct{ cluster.BasePolicy }

// Name implements cluster.Policy.
func (VLLMDP) Name() string { return "vLLM (DP)" }

// Setup implements cluster.Policy.
func (VLLMDP) Setup(c *cluster.Cluster) error { return cluster.SetupDP(c) }

// HandlePressure implements the recompute mechanism.
func (VLLMDP) HandlePressure(g *cluster.Group, need int) bool {
	return recomputeVictim(g)
}

func recomputeVictim(g *cluster.Group) bool {
	v := g.Victim()
	if v == nil {
		return false
	}
	g.PreemptRecompute(v)
	return true
}

// StaticPP statically partitions parameters over fixed-width pipeline
// groups: width 2 is the vLLM (PP) baseline of §5.1; widths 4 and 8 are the
// "drop 75%/88%" configurations of Figure 5.
type StaticPP struct {
	cluster.BasePolicy
	// Width is the pipeline depth (instances per group).
	Width int
}

// Name implements cluster.Policy.
func (p StaticPP) Name() string {
	if p.Width == 2 {
		return "vLLM (PP)"
	}
	return fmt.Sprintf("static-pp-%d", p.Width)
}

// Setup implements cluster.Policy.
func (p StaticPP) Setup(c *cluster.Cluster) error {
	w := p.Width
	if w < 2 {
		return fmt.Errorf("static PP: width %d", w)
	}
	if len(c.Instances)%w != 0 {
		return fmt.Errorf("static PP: %d instances not divisible by width %d",
			len(c.Instances), w)
	}
	layers := c.Model.Layers
	split := make([]int, w)
	base, extra := layers/w, layers%w
	for i := range split {
		split[i] = base
		if i < extra {
			split[i]++
		}
	}
	for i := 0; i+w-1 < len(c.Instances); i += w {
		ids := make([]int, w)
		for j := 0; j < w; j++ {
			in := c.Instances[i+j]
			if _, err := in.DropLayers(layers - split[j]); err != nil {
				return err
			}
			ids[j] = in.ID
		}
		if _, err := c.NewGroup(ids); err != nil {
			return err
		}
	}
	return nil
}

// HandlePressure implements cluster.Policy.
func (StaticPP) HandlePressure(g *cluster.Group, need int) bool {
	return recomputeVictim(g)
}

// Former fills the pipeline with two microbatches per stage.
func (StaticPP) Former() cluster.Former {
	return cluster.TokenCountFormer{MicrobatchesPerStage: 2}
}

// VLLMPP returns the vLLM (PP) baseline: pairwise halved parameters.
func VLLMPP() StaticPP { return StaticPP{Width: 2} }

// InferCept swaps victims' KVCache to host DRAM over PCIe. Its contribution
// is eliminating IO idle time, so swap-out frees GPU blocks immediately
// (the write-back is overlapped with execution); swap-in must wait for the
// write-back to land plus the read-back transfer.
type InferCept struct {
	cluster.BasePolicy
	// swapOutDone records when each victim's host copy is complete.
	swapOutDone map[int]sim.Time
	// swapIn marks requests whose swap-in transfer is in flight.
	swapIn map[int]bool
	// candidates is BeforeAdmit's reusable swap-in scan buffer and scanFn
	// its persistent collector closure (a per-round literal would allocate).
	candidates []*request.Request
	scanFn     func(*request.Request)
	// swapInFn is the persistent swap-in completion callback; sfree
	// recycles its per-transfer (group, request) records.
	swapInFn func(any)
	sfree    []*swapInRec
}

// swapInRec carries one in-flight swap-in transfer's completion context.
type swapInRec struct {
	g *cluster.Group
	r *request.Request
}

// NewInferCept creates the swap policy.
func NewInferCept() *InferCept {
	p := &InferCept{
		swapOutDone: make(map[int]sim.Time),
		swapIn:      make(map[int]bool),
	}
	p.scanFn = func(r *request.Request) {
		if r.State() == request.StateSwapped && !p.swapIn[r.ID] {
			p.candidates = append(p.candidates, r)
		}
	}
	p.swapInFn = func(a any) {
		s := a.(*swapInRec)
		g, r := s.g, s.r
		s.g, s.r = nil, nil
		p.sfree = append(p.sfree, s)
		delete(p.swapIn, r.ID)
		delete(p.swapOutDone, r.ID)
		if r.State() == request.StateSwapped {
			g.Unstall(r)
		}
	}
	return p
}

// Name implements cluster.Policy.
func (*InferCept) Name() string { return "InferCept" }

// Setup implements cluster.Policy.
func (*InferCept) Setup(c *cluster.Cluster) error { return cluster.SetupDP(c) }

func kvBytes(g *cluster.Group, tokens int) int64 {
	return int64(tokens) * g.Cluster().Model.KVBytesPerToken()
}

// HandlePressure swaps the youngest victim out.
func (p *InferCept) HandlePressure(g *cluster.Group, need int) bool {
	v := g.Victim()
	if v == nil {
		return false
	}
	if v.Seq == nil {
		return recomputeVictim(g)
	}
	bytes := kvBytes(g, v.Seq.Tokens())
	if err := v.Seq.SwapOut(); err != nil {
		return recomputeVictim(g)
	}
	g.Stall(v, request.StateSwapped)
	c := g.Cluster()
	pcie := c.GPU.PCIeBandwidth * float64(c.Model.GPUsPerInstance)
	p.swapOutDone[v.ID] = c.Sim.Now().Add(sim.DurationFromSeconds(float64(bytes) / pcie))
	return true
}

// BeforeAdmit swaps requests back in (oldest first) when their host copy is
// complete and GPU memory is available — ahead of new admissions, matching
// vLLM's swapped-queue priority.
func (p *InferCept) BeforeAdmit(g *cluster.Group) {
	c := g.Cluster()
	now := c.Sim.Now()
	p.candidates = p.candidates[:0]
	g.EachStalled(p.scanFn)
	candidates := p.candidates
	// Oldest (earliest arrival) first.
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			if candidates[j].Arrival < candidates[i].Arrival {
				candidates[i], candidates[j] = candidates[j], candidates[i]
			}
		}
	}
	for _, r := range candidates {
		if now < p.swapOutDone[r.ID] {
			continue
		}
		if r.Seq == nil || !g.Pool().CanFit(r.Seq.Tokens()) {
			continue
		}
		if err := r.Seq.SwapIn(); err != nil {
			continue
		}
		p.swapIn[r.ID] = true
		bytes := kvBytes(g, r.Seq.Tokens())
		pcie := c.GPU.PCIeBandwidth * float64(c.Model.GPUsPerInstance)
		var rec *swapInRec
		if n := len(p.sfree); n > 0 {
			rec = p.sfree[n-1]
			p.sfree[n-1] = nil
			p.sfree = p.sfree[:n-1]
		} else {
			rec = &swapInRec{}
		}
		rec.g, rec.r = g, r
		c.Sim.AfterCall(sim.DurationFromSeconds(float64(bytes)/pcie),
			"swap-in", p.swapInFn, rec)
	}
}

// Llumnix migrates victims' KVCache to the most-spare group over RDMA. The
// source memory is only released when the transfer completes — the §2.3
// observation that migration cannot relieve pressure instantly — and falls
// back to recompute when no destination fits.
type Llumnix struct {
	cluster.BasePolicy
	// migrating tracks in-flight migrations to bound concurrency.
	migrating map[int]bool
	// ImbalanceGap triggers proactive rebalancing migration when the
	// most- and least-loaded groups differ by more than this ratio.
	ImbalanceGap float64
	// mfree recycles migration records (and their completion closures)
	// across the policy's many in-flight transfers.
	mfree []*migration
}

// migration is one in-flight KVCache migration. The record and its done
// closure are recycled via Llumnix.mfree: a migration completes exactly
// once (the policy never cancels the bulk transfer), so recycling at
// completion is safe.
type migration struct {
	p        *Llumnix
	src, dst *cluster.Group
	v        *request.Request
	done     func()
}

// NewLlumnix creates the migration policy.
func NewLlumnix() *Llumnix {
	return &Llumnix{migrating: make(map[int]bool), ImbalanceGap: 0.25}
}

func (p *Llumnix) getMigration(src, dst *cluster.Group, v *request.Request) *migration {
	if n := len(p.mfree); n > 0 {
		m := p.mfree[n-1]
		p.mfree[n-1] = nil
		p.mfree = p.mfree[:n-1]
		m.src, m.dst, m.v = src, dst, v
		return m
	}
	m := &migration{p: p, src: src, dst: dst, v: v}
	m.done = m.finish
	return m
}

// Name implements cluster.Policy.
func (*Llumnix) Name() string { return "Llumnix" }

// Setup implements cluster.Policy.
func (*Llumnix) Setup(c *cluster.Cluster) error { return cluster.SetupDP(c) }

// load returns the demand ratio of a group.
func load(g *cluster.Group) float64 {
	return float64(g.DemandTokens()) / float64(g.CapacityTokens())
}

// spareDestination finds the group with the lowest load that can fit the
// given tokens, excluding src.
func spareDestination(c *cluster.Cluster, src *cluster.Group, tokens int) *cluster.Group {
	var best *cluster.Group
	var bestLoad float64
	c.EachGroup(func(g *cluster.Group) {
		if g == src || !g.Pool().CanFit(tokens) {
			return
		}
		l := load(g)
		if best == nil || l < bestLoad {
			best, bestLoad = g, l
		}
	})
	return best
}

// HandlePressure migrates the youngest victim if a spare destination
// exists; memory is freed asynchronously, so it returns false (the round
// retries after the migration lands). With no destination it falls back to
// recompute.
func (p *Llumnix) HandlePressure(g *cluster.Group, need int) bool {
	v := g.Victim()
	if v == nil {
		return false
	}
	if v.Seq == nil || p.migrating[v.ID] {
		return recomputeVictim(g)
	}
	dst := spareDestination(g.Cluster(), g, v.Seq.Tokens())
	if dst == nil {
		return recomputeVictim(g)
	}
	p.migrate(g, dst, v)
	return false
}

func (p *Llumnix) migrate(src, dst *cluster.Group, v *request.Request) {
	c := src.Cluster()
	p.migrating[v.ID] = true
	src.Stall(v, request.StateMigrating)
	bytes := kvBytes(src, v.Seq.Tokens())
	egress := c.Fabric.Egress(src.Instances()[0].ID)
	// Chunked so co-located pipelined traffic is not starved.
	chunk := int64(4 << 20)
	m := p.getMigration(src, dst, v)
	egress.SendChunked(bytes, chunk, network.PriorityBulk, "migrate", m.done)
}

// finish lands a completed migration transfer and recycles the record.
func (m *migration) finish() {
	p, src, dst, v := m.p, m.src, m.dst, m.v
	m.src, m.dst, m.v = nil, nil, nil
	p.mfree = append(p.mfree, m)
	delete(p.migrating, v.ID)
	if v.State() != request.StateMigrating || v.Seq == nil {
		return // finished or preempted during transfer
	}
	moved, err := v.Seq.MoveTo(dst.Pool())
	src.RemoveRequest(v)
	if err != nil {
		// Destination filled up meanwhile: recompute.
		v.Seq.Free()
		v.Seq = nil
		v.ResetForRecompute()
		v.SetState(request.StateQueued)
		dst.Enqueue(v)
		return
	}
	v.Seq = moved
	v.SetState(request.StateRunning)
	dst.AdoptRunning(v)
	dst.Wake()
	src.Wake()
}

// OnTick rebalances proactively: when the spread between the most- and
// least-loaded groups exceeds ImbalanceGap, one victim migrates.
func (p *Llumnix) OnTick(c *cluster.Cluster) {
	var hi, lo *cluster.Group
	c.EachGroup(func(g *cluster.Group) {
		if hi == nil || load(g) > load(hi) {
			hi = g
		}
		if lo == nil || load(g) < load(lo) {
			lo = g
		}
	})
	if hi == nil || hi == lo || load(hi)-load(lo) < p.ImbalanceGap {
		return
	}
	v := hi.Victim()
	if v == nil || v.Seq == nil || p.migrating[v.ID] {
		return
	}
	if !lo.Pool().CanFit(v.Seq.Tokens()) {
		return
	}
	p.migrate(hi, lo, v)
}
