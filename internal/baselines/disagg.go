package baselines

import (
	"fmt"

	"kunserve/internal/cluster"
	"kunserve/internal/cluster/engine"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/network"
	"kunserve/internal/obs"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// Disagg is disaggregated prefill/decode serving (DistServe/Splitwise
// style): the cluster's instances split into a prefill pool and a decode
// pool, each a set of singleton groups in the corresponding engine role.
// New prompts route to prefill groups only (the dispatcher filters decode
// groups out; the queue-depth router is the natural pairing); a completed
// prefill's KVCache is handed off to a decode group over the scale-out
// fabric — admission-side reservation on the destination pool first, then
// a chunked bulk transfer while the request stalls in the handoff state —
// and the decode pool generates the remaining tokens without prefill
// interference.
//
// The handoff reuses the paged KVCache's block identity: when prefix
// caching is on, the destination reservation matches the request's
// shared-prefix chain against the decode pool's index, and blocks already
// cached there are not re-transferred — only the uncached remainder
// crosses the wire.
type Disagg struct {
	cluster.BasePolicy
	// Prefill and Decode size the two pools in instances; they must sum
	// to the cluster's instance count and each be at least 1.
	Prefill int
	Decode  int

	// pending holds prefill-complete requests stalled at their source
	// because no decode group currently fits their KV; retried on every
	// decode scheduling round and monitor tick.
	pending []pendingHandoff

	stats DisaggStats
}

// pendingHandoff is a prefill-complete request waiting for decode-pool
// capacity; its KV stays resident on src until the transfer starts.
type pendingHandoff struct {
	src *cluster.Group
	r   *request.Request
}

// DisaggStats counts the handoff path's activity. All transfer counters
// are completion-based — a transfer still in flight at the horizon counts
// nowhere — so they share a basis with the collector's kv_transfer stage
// distribution.
type DisaggStats struct {
	// Handoffs counts KV transfers completed; PendingStalls counts
	// handoffs that had to wait for decode capacity at least once.
	Handoffs      int
	PendingStalls int
	// TransferredBytes is what actually crossed the wire; FullKVBytes is
	// what would have without destination-side prefix-cache reuse. Their
	// gap is the dedup win.
	TransferredBytes int64
	FullKVBytes      int64
	// CachedTokensReused counts prompt tokens the decode-side reservation
	// served from its prefix cache instead of receiving over the network.
	CachedTokensReused int64
	// DecodeRecomputes counts decode-pool preemptions rerouted back to a
	// prefill group for re-prefill (decode groups cannot prefill).
	DecodeRecomputes int
}

// NewDisagg creates a disaggregated policy with the given pool split.
func NewDisagg(prefill, decode int) *Disagg {
	return &Disagg{Prefill: prefill, Decode: decode}
}

// Name implements cluster.Policy.
func (p *Disagg) Name() string {
	return fmt.Sprintf("Disagg (%dP:%dD)", p.Prefill, p.Decode)
}

// Stats returns the handoff counters.
func (p *Disagg) Stats() DisaggStats { return p.stats }

// Setup implements cluster.Policy: one singleton group per instance, the
// first Prefill of them in the prefill role, the rest decoding.
func (p *Disagg) Setup(c *cluster.Cluster) error {
	n := len(c.Instances)
	if p.Prefill < 1 || p.Decode < 1 {
		return fmt.Errorf("disagg: split %dP:%dD needs at least one instance per pool",
			p.Prefill, p.Decode)
	}
	if p.Prefill+p.Decode != n {
		return fmt.Errorf("disagg: split %dP:%dD does not cover %d instances",
			p.Prefill, p.Decode, n)
	}
	for i, in := range c.Instances {
		g, err := c.NewGroup([]int{in.ID})
		if err != nil {
			return err
		}
		role := engine.RolePrefill
		if i >= p.Prefill {
			role = engine.RoleDecode
		}
		if err := g.SetRole(role); err != nil {
			return err
		}
	}
	return nil
}

// HandlePressure implements cluster.Policy. Prefill groups recompute the
// youngest victim in place (it re-prefills right there). A decode group's
// victim cannot recompute locally — decode groups run no prefill stage —
// so its KV is dropped and the request reroutes to the least-queued
// prefill group for re-prefill and a fresh handoff.
func (p *Disagg) HandlePressure(g *cluster.Group, need int) bool {
	if g.Role() != engine.RoleDecode {
		return recomputeVictim(g)
	}
	v := g.Victim()
	if v == nil {
		return false
	}
	g.PreemptDetach(v)
	p.stats.DecodeRecomputes++
	leastQueuedPrefill(g.Cluster()).Enqueue(v)
	return true
}

// BeforeAdmit implements cluster.Policy: every decode scheduling round
// retries pending handoffs first, so freed decode memory is claimed at
// round granularity rather than waiting for the next monitor tick.
func (p *Disagg) BeforeAdmit(g *cluster.Group) {
	if g.Role() == engine.RoleDecode {
		p.drainPending(g.Cluster())
	}
}

// OnTick implements cluster.Policy (pending-handoff backstop).
func (p *Disagg) OnTick(c *cluster.Cluster) { p.drainPending(c) }

// HandoffPrefill implements cluster.PrefillFinisher: the engine hands over
// a prefill-role group's completed prefill. The request stalls in the
// handoff state (its KV must stay resident until shipped) and the
// transfer starts immediately when a decode group fits it, otherwise it
// joins the pending list. Its WaitStart times the handoff_pending stage.
func (p *Disagg) HandoffPrefill(g *cluster.Group, r *request.Request) bool {
	g.Stall(r, request.StateHandoff)
	r.WaitStart = g.Cluster().Sim.Now()
	if !p.tryHandoff(g.Cluster(), g, r) {
		p.stats.PendingStalls++
		p.pending = append(p.pending, pendingHandoff{src: g, r: r})
	}
	return true
}

// leastQueuedPrefill returns the prefill-role group with the shortest
// wait queue (ties keep the earliest) — the same signal the queue-depth
// router uses for new arrivals.
func leastQueuedPrefill(c *cluster.Cluster) *cluster.Group {
	var best *cluster.Group
	c.EachGroup(func(g *cluster.Group) {
		if g.Role() != engine.RolePrefill {
			return
		}
		if best == nil || g.QueueLen() < best.QueueLen() {
			best = g
		}
	})
	if best == nil {
		panic("disagg: no prefill groups")
	}
	return best
}

// decodeDestination picks the least-loaded decode group that fits tokens
// of KV right now (net of its prefix cache), or nil. Decode groups never
// appear in the dispatch index (they admit no arrivals), and the fit
// predicate needs ordered traversal a min-heap cannot give, so this stays
// a scan — but over EachGroup, not a per-call Groups copy.
func (p *Disagg) decodeDestination(c *cluster.Cluster, pfx kvcache.Prefix, tokens int) *cluster.Group {
	var best *cluster.Group
	var bestLoad float64
	c.EachGroup(func(g *cluster.Group) {
		if g.Role() != engine.RoleDecode {
			return
		}
		if !g.Pool().CanFitWithPrefix(pfx, tokens) {
			return
		}
		l := load(g)
		if best == nil || l < bestLoad {
			best, bestLoad = g, l
		}
	})
	return best
}

// tryHandoff reserves destination KV and starts the chunked transfer,
// returning false when no decode group currently fits the request.
func (p *Disagg) tryHandoff(c *cluster.Cluster, src *cluster.Group, r *request.Request) bool {
	tokens := r.Seq.Tokens()
	dst := p.decodeDestination(c, r.Prefix, tokens)
	if dst == nil {
		return false
	}
	// Admission-side reservation on the destination pool: match the
	// shared-prefix chain first (blocks already cached there need neither
	// allocation nor transfer), then allocate the uncached remainder.
	seq, cached, err := dst.Pool().NewSeqCached(r.Prefix)
	if err != nil {
		return false
	}
	if err := seq.Append(tokens - cached); err != nil {
		// CanFitWithPrefix guaranteed the fit; defensive fallback.
		seq.Free()
		return false
	}
	bytes := int64(tokens-cached) * c.Model.KVBytesPerToken()
	start := c.Sim.Now()
	if waited, ok := r.EndWait(start); ok {
		c.Collector.ObserveStageWait(metrics.StageHandoffPending, waited.Seconds())
	}
	var onChunk func(int64)
	if tr := c.Tracer(); tr != nil {
		tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: start,
			Cat: obs.CatHandoff, Name: "handoff_start", Group: src.ID,
			Track: "handoff", Req: r.ID,
			Args: [2]obs.Arg{
				{Key: "bytes", Val: bytes},
				{Key: "dst", Val: int64(dst.ID)},
			}})
		onChunk = func(chunkBytes int64) {
			tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: c.Sim.Now(),
				Cat: obs.CatHandoff, Name: "handoff_chunk", Group: src.ID,
				Track: "handoff", Req: r.ID,
				Args: [2]obs.Arg{{Key: "bytes", Val: chunkBytes}}})
		}
		c.ReqTrack().Transition(start, r.ID, "kv_transfer", src.ID)
	}
	egress := c.Fabric.Egress(src.Instances()[0].ID)
	egress.SendChunked(bytes, kvChunkBytes, network.PriorityBulk, onChunk, func() {
		p.finishHandoff(c, src, dst, r, seq, start, tokens, cached)
	})
	return true
}

// finishHandoff lands the transferred KV: the source copy frees, the
// request adopts the destination reservation and resumes as decode-ready.
// The byte and reuse counters are charged here, on completion, so they
// describe exactly the transfers the kv_transfer stage distribution does.
func (p *Disagg) finishHandoff(c *cluster.Cluster, src, dst *cluster.Group,
	r *request.Request, seq *kvcache.Seq, start sim.Time, tokens, cached int) {
	if r.State() != request.StateHandoff || r.Seq == nil ||
		src.Closed() || dst.Closed() || r.GroupID != src.ID {
		// Rerouted or dropped during the transfer, or a reconfiguration
		// dissolved an endpoint group; release the orphaned reservation
		// (a transplanted request's own KV is its new group's business).
		seq.Free()
		return
	}
	p.stats.Handoffs++
	p.stats.TransferredBytes += int64(tokens-cached) * c.Model.KVBytesPerToken()
	p.stats.FullKVBytes += int64(tokens) * c.Model.KVBytesPerToken()
	p.stats.CachedTokensReused += int64(cached)
	c.Collector.ObserveStageWait(metrics.StageKVTransfer, c.Sim.Now().Sub(start).Seconds())
	if tr := c.Tracer(); tr != nil {
		tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: c.Sim.Now(),
			Cat: obs.CatHandoff, Name: "handoff_done", Group: dst.ID,
			Track: "handoff", Req: r.ID,
			Args: [2]obs.Arg{
				{Key: "tokens", Val: int64(tokens)},
				{Key: "cached", Val: int64(cached)},
			}})
	}
	src.RemoveRequest(r)
	r.Seq.Free()
	r.Seq = seq
	r.SetState(request.StateRunning)
	dst.AdoptRunning(r)
	dst.MarkDecodeReady(r)
	dst.Wake()
	src.Wake()
}

// drainPending retries queued handoffs head-of-line: freed decode
// capacity goes to the oldest pending transfer first, and nothing behind
// a still-blocked head ships — the same fairness rule the engine's
// admission stage enforces, and what keeps a large handoff from being
// starved indefinitely by a stream of smaller later ones.
func (p *Disagg) drainPending(c *cluster.Cluster) {
	if len(p.pending) == 0 {
		return
	}
	kept := p.pending[:0]
	blocked := false
	for _, h := range p.pending {
		if h.r.State() != request.StateHandoff {
			continue // rerouted or dropped while pending
		}
		if blocked || !p.tryHandoff(c, h.src, h.r) {
			blocked = true
			kept = append(kept, h)
		}
	}
	p.pending = kept
}
