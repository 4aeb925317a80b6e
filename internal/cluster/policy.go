package cluster

import (
	"kunserve/internal/batching"
	"kunserve/internal/request"
)

// Former partitions one pipelined iteration into microbatches. The
// baseline (token-count) former and KunServe's lookahead former implement
// it. One policy's Former is shared by all its groups, so it keeps no
// per-call state: each caller brings its own scratch.
type Former interface {
	// Form splits the batch dec ++ items for a pipeline of the given
	// stage count, forming into s. dec is the iteration's decode steps in
	// order, and items starts with its item decodes, one per item step of
	// dec, followed by the prefill chunks (see batching.Decode). Each
	// microbatch sums its fast decodes into its Dec and lists its other
	// work as items. The microbatches alias s or items and stay valid
	// until the next Form on s, and neither input is written. For
	// stages == 1 implementations must return the batch unsplit.
	Form(s *batching.Split, dec []batching.Decode, items []batching.Item, stages int) []batching.Microbatch
}

// TokenCountFormer is the state-of-the-art token-count-based microbatch
// formulation (Sarathi-Serve/vLLM): near-equal token counts per microbatch,
// blind to the quadratic attention cost (Figure 9 (b)).
type TokenCountFormer struct{}

// microbatchesPerStage is how many microbatches TokenCountFormer cuts per
// pipeline stage: two fill the pipeline, so a stage has the next
// microbatch ready while its neighbour runs the previous one.
const microbatchesPerStage = 2

// Form implements Former: the decode run is cut at counts (see
// batching.SplitByTokenCount).
func (TokenCountFormer) Form(s *batching.Split, dec []batching.Decode, items []batching.Item, stages int) []batching.Microbatch {
	if stages <= 1 {
		return s.Whole(dec, items)
	}
	return batching.SplitByTokenCount(s, dec, items, stages*microbatchesPerStage)
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
