package cluster

import (
	"kunserve/internal/batching"
	"kunserve/internal/request"
)

// Former partitions one iteration's batch into pipeline microbatches. The
// baseline (token-count) former and KunServe's lookahead former implement
// it. One policy's Former is shared by all its groups, so it keeps no
// per-call state: each caller brings its own scratch.
type Former interface {
	// Form splits items for a pipeline of the given stage count, forming
	// into s: the microbatches alias s or items and stay valid until the
	// next Form on s, and items is never written. For stages == 1
	// implementations must return the batch unsplit.
	Form(s *batching.Split, items []batching.Item, stages int) [][]batching.Item
}

// TokenCountFormer is the state-of-the-art token-count-based microbatch
// formulation (Sarathi-Serve/vLLM): near-equal token counts per microbatch,
// blind to the quadratic attention cost (Figure 9 (b)).
type TokenCountFormer struct {
	// MicrobatchesPerStage scales how many microbatches fill the
	// pipeline; vLLM uses one in-flight microbatch per stage.
	MicrobatchesPerStage int
}

// Form implements Former.
func (f TokenCountFormer) Form(s *batching.Split, items []batching.Item, stages int) [][]batching.Item {
	if stages <= 1 {
		return s.Whole(items)
	}
	per := f.MicrobatchesPerStage
	if per <= 0 {
		per = 1
	}
	return batching.SplitByTokenCount(s, items, stages*per)
}

// Policy is the overload-handling mechanism under evaluation. All five
// systems (vLLM DP/PP, InferCept, Llumnix, KunServe) share the dispatcher,
// continuous batching, kernel timing and metrics; only the Policy differs,
// mirroring the paper's calibrated baselines.
type Policy interface {
	// Name identifies the system in experiment output.
	Name() string

	// Setup partitions the cluster's instances into initial serving
	// groups (e.g. vLLM-PP pre-drops half the layers pairwise).
	Setup(c *Cluster) error

	// BeforeAdmit runs at the start of every scheduling round, before
	// FCFS admission (InferCept uses it to swap requests back in).
	BeforeAdmit(g *Group)

	// HandlePressure is invoked when g is needBlocks short of KVCache to
	// advance a request this iteration. It returns true when blocks were
	// freed immediately so the caller can retry.
	HandlePressure(g *Group, needBlocks int) bool

	// OnTick runs at every monitor interval with fresh demand data
	// (KunServe's drop/restore trigger, Llumnix's rebalancing).
	OnTick(c *Cluster)

	// Former returns the microbatch former for pipelined groups.
	Former() Former
}

// TickQuiescent is the optional policy extension behind the demand-driven
// monitor. A policy reports quiescence when, with the cluster state frozen
// exactly as it is now, its OnTick would take no action at any future
// monitor tick — i.e. OnTick is a pure function of simulation state with
// no dependence on wall-clock time alone. While the policy is quiescent
// (and no tracer wants dense counters), the monitor skips ahead to the
// next event horizon instead of firing every MonitorInterval: between now
// and the next pending event no callback runs, so nothing the skipped
// ticks could observe or trigger can change, and the skipped demand
// samples are backfilled with the provably unchanged value. Output stays
// byte-identical by construction.
//
// Policies whose OnTick can act on elapsed time with *unchanged* state —
// e.g. a restore hysteresis window expiring — must return false for as
// long as such a deadline is pending. Policies that override OnTick
// without implementing this method correctly inherit BasePolicy's
// unconditional true, which silently breaks them under the adaptive
// monitor: every OnTick override must come with its own audited
// TickQuiescent (or return false conservatively).
type TickQuiescent interface {
	TickQuiescent(c *Cluster) bool
}

// PrefillFinisher is the optional policy extension role-split clusters
// need: when a prefill-role group completes a request's prefill, the
// execution engine hands the request to the policy — which ships its KV
// to a decode group (admission-side reservation on the destination pool,
// a handoff stall while blocks are in flight) — instead of decoding
// locally. HandoffPrefill returns true when the policy took the request
// over; Group.SetRole refuses the Prefill role for policies that do not
// implement this interface.
type PrefillFinisher interface {
	HandoffPrefill(g *Group, r *request.Request) bool
}

// BasePolicy provides no-op defaults; concrete policies embed it.
type BasePolicy struct{}

// BeforeAdmit implements Policy.
func (BasePolicy) BeforeAdmit(*Group) {}

// OnTick implements Policy.
func (BasePolicy) OnTick(*Cluster) {}

// TickQuiescent implements the adaptive-monitor extension: the no-op
// OnTick can never act, so the monitor may always skip ahead. Policies
// that override OnTick MUST override this too (see the interface docs).
func (BasePolicy) TickQuiescent(*Cluster) bool { return true }

// Former implements Policy.
func (BasePolicy) Former() Former { return TokenCountFormer{} }

// SetupDP gives every instance its own full-copy group: the default
// data-parallel deployment all non-PP systems use.
func SetupDP(c *Cluster) error {
	for _, in := range c.Instances {
		if _, err := c.NewGroup([]int{in.ID}); err != nil {
			return err
		}
	}
	return nil
}
