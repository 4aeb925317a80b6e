// Package request defines the request lifecycle state machine shared by all
// serving policies. A request arrives with a prompt (InputLen tokens),
// emits its first token when prefill completes (TTFT), then decodes one
// token per iteration until OutputLen tokens have been produced (TPOT).
// Overload-handling policies move requests through additional states:
// preempted (KVCache dropped for recompute), swapped (KVCache in host
// DRAM), migrating (KVCache moving to another instance), exchanging
// (KVCache in transit after a parameter drop reshaped the group), and
// handoff (prefill-complete KVCache shipping from a prefill group to a
// decode group in a disaggregated deployment).
package request

import (
	"fmt"

	"kunserve/internal/kvcache"
	"kunserve/internal/sim"
)

// State is a request's lifecycle position.
type State int

// Request states. Transitions are validated by SetState.
const (
	StateQueued State = iota
	StateRunning
	StateFinished
	StatePreempted
	StateSwapped
	StateMigrating
	StateExchanging
	StateHandoff
)

// numStates bounds the State values; SetState rejects anything outside
// [0, numStates).
const numStates = StateHandoff + 1

// valid reports whether s is one of the states above.
func (s State) valid() bool { return s >= 0 && s < numStates }

var stateNames = [numStates]string{
	StateQueued:     "queued",
	StateRunning:    "running",
	StateFinished:   "finished",
	StatePreempted:  "preempted",
	StateSwapped:    "swapped",
	StateMigrating:  "migrating",
	StateExchanging: "exchanging",
	StateHandoff:    "handoff",
}

func (s State) String() string {
	if s.valid() {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// bit is s's bit in a state set; s must be valid.
func (s State) bit() uint16 { return 1 << s }

// validNext holds each state's legal successors as a set of state bits.
var validNext = [numStates]uint16{
	StateQueued: StateRunning.bit(),
	StateRunning: StateFinished.bit() | StatePreempted.bit() | StateSwapped.bit() |
		StateMigrating.bit() | StateExchanging.bit() | StateHandoff.bit() | StateQueued.bit(),
	StatePreempted: StateRunning.bit() | StateQueued.bit(),
	// Swapped/migrating/exchanging/handoff requests can be demoted to
	// queued by failure recovery or reconfiguration (their KVCache is
	// recomputed).
	StateSwapped:    StateRunning.bit() | StateQueued.bit(),
	StateMigrating:  StateRunning.bit() | StateQueued.bit(),
	StateExchanging: StateRunning.bit() | StateQueued.bit(),
	StateHandoff:    StateRunning.bit() | StateQueued.bit(),
	StateFinished:   0,
}

// stallStates are the states of a running request excluded from
// scheduling while its KVCache is elsewhere or in transit.
var stallStates = StateSwapped.bit() | StateMigrating.bit() | StateExchanging.bit() | StateHandoff.bit()

// Stalled reports whether s is a stall state: swapped, migrating,
// exchanging or handoff.
func (s State) Stalled() bool { return s.valid() && stallStates&s.bit() != 0 }

// Request tracks one inference request through the serving system.
// Field order is deliberate: every scheduling round the engine walks the
// requests its lane does not track on its own (prefilling and stalled
// ones), and each pass reads only the scheduling-hot subset. Packing that
// subset — state, token counters, group and seq — into the struct's first
// 64 bytes keeps each per-request touch to a single cache line; the
// identity, timestamp, and trace-tagging fields that only admission and
// metrics read follow. A steady decode token touches no Request at all:
// the engine counts it in its lane and writes it back later.
type Request struct {
	state State

	// Generated counts output tokens emitted, including the first.
	Generated int

	OutputLen int

	// PrefilledTokens counts prompt tokens whose KV has been computed in
	// the current incarnation (chunked prefill advances it stepwise;
	// preemption resets it).
	PrefilledTokens int

	// prefillTarget is the prompt length of the current incarnation:
	// InputLen initially, InputLen + consumed output tokens after a
	// recompute-preemption.
	prefillTarget int

	// GroupID is the serving group currently responsible for the request.
	GroupID int

	// Seq is the GPU KVCache allocation; nil while queued/preempted.
	Seq *kvcache.Seq

	ID       int
	Arrival  sim.Time
	InputLen int

	// Per-request policy state for the KVCache-centric baselines, kept on
	// the request so no policy needs a map keyed by ID. SwapOutDone is
	// when InferCept's host copy of the swapped-out KVCache is complete,
	// SwapInFlight marks its swap-in transfer in flight, and
	// MigrationInFlight marks a Llumnix migration in flight. The policy
	// that sets one clears it when its transfer lands; Renew clears all.
	SwapOutDone       sim.Time
	SwapInFlight      bool
	MigrationInFlight bool

	// Client names the originating workload client and Class its SLO
	// class (spec-tagged traces; empty otherwise). Routers and queue
	// disciplines key on them; metrics break down by Class.
	Client string
	Class  string

	// Prefix is the shared-prompt identity for KVCache prefix sharing:
	// the first Prefix.Tokens prompt tokens are identical across every
	// request carrying the same Prefix.ID. Zero for unshared requests.
	// Tokens an admission serves from the cache are folded into
	// PrefilledTokens; the collector tracks the run-wide hit accounting.
	Prefix kvcache.Prefix

	// FirstTokenAt is when the first output token was emitted (TTFT
	// endpoint); zero until then.
	FirstTokenAt sim.Time

	// WaitStart is when the request began its current disaggregation
	// stage wait — prefill queue, pending handoff or decode queue; it is
	// in at most one at a time — and EndWait's reader clears it. Unset,
	// it is NoWait: negative, so no real stamp (zero included) equals it.
	WaitStart sim.Time
}

// NoWait is Request.WaitStart's unset value.
const NoWait sim.Time = -1

// New creates a queued request.
func New(id int, arrival sim.Time, inputLen, outputLen int) *Request {
	r := new(Request)
	r.Renew(id, arrival, inputLen, outputLen)
	return r
}

// Renew re-initializes a recycled request struct exactly as New would,
// erasing every trace of the prior lifecycle. IDs are globally unique per
// run (they come from the trace), so recycled structs never collide in
// ID-keyed bookkeeping.
func (r *Request) Renew(id int, arrival sim.Time, inputLen, outputLen int) {
	if inputLen <= 0 || outputLen <= 0 {
		panic(fmt.Sprintf("request %d: lens %d/%d", id, inputLen, outputLen))
	}
	*r = Request{
		ID: id, Arrival: arrival, InputLen: inputLen, OutputLen: outputLen,
		prefillTarget: inputLen,
		state:         StateQueued,
		WaitStart:     NoWait,
	}
}

// Pool recycles finished Request structs. The serving cluster allocates
// every arrival through it and returns requests as they finish, so a
// steady-state run's live request footprint is its concurrency, not its
// trace length. Not safe for concurrent use (a cluster is single-threaded
// inside its simulation).
type Pool struct {
	free []*Request
}

// Get returns a queued request, recycling a finished struct when one is
// available.
func (p *Pool) Get(id int, arrival sim.Time, inputLen, outputLen int) *Request {
	n := len(p.free)
	if n == 0 {
		return New(id, arrival, inputLen, outputLen)
	}
	r := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	r.Renew(id, arrival, inputLen, outputLen)
	return r
}

// Put recycles a finished request. Returning a request in any other state
// panics: a live request reachable from scheduler bookkeeping must never
// be handed out again.
func (p *Pool) Put(r *Request) {
	if r.state != StateFinished {
		panic(fmt.Sprintf("request %d: pooling in state %v", r.ID, r.state))
	}
	p.free = append(p.free, r)
}

// State returns the current lifecycle state.
func (r *Request) State() State { return r.state }

// SetState transitions the request, panicking on illegal transitions —
// those are always scheduler bugs, and silent corruption would invalidate
// experiment results.
func (r *Request) SetState(next State) {
	if r.state.valid() && next.valid() && validNext[r.state]&next.bit() != 0 {
		r.state = next
		return
	}
	panic(fmt.Sprintf("request %d: illegal transition %v -> %v", r.ID, r.state, next))
}

// PrefillTarget returns the number of prompt-side tokens that must be
// prefilled in the current incarnation. After a recompute-preemption the
// already-consumed output tokens become part of the prompt (they must be
// re-prefilled to rebuild KV), which is why it exceeds InputLen then.
func (r *Request) PrefillTarget() int { return r.prefillTarget }

// RemainingPrefill returns prompt tokens not yet prefilled.
func (r *Request) RemainingPrefill() int {
	rem := r.PrefillTarget() - r.PrefilledTokens
	if rem < 0 {
		return 0
	}
	return rem
}

// InPrefill reports whether the request still has prompt tokens to chunk.
func (r *Request) InPrefill() bool { return r.RemainingPrefill() > 0 }

// ContextLen returns the tokens whose KV is live for this request: the
// prefilled prompt plus tokens generated since (excluding the token being
// produced this iteration).
func (r *Request) ContextLen() int {
	gen := r.Generated
	if r.Generated > 0 {
		// Tokens generated after re-prefill (the re-prefilled part is
		// already inside PrefilledTokens after preemption).
		gen = r.Generated - (r.PrefillTarget() - r.InputLen) - 1
		if gen < 0 {
			gen = 0
		}
	}
	return r.PrefilledTokens + gen
}

// TotalTokens returns the KV footprint in tokens when the request is fully
// processed: prompt plus all but the final generated token.
func (r *Request) TotalTokens() int { return r.InputLen + r.OutputLen - 1 }

// RemainingOutput returns output tokens still to be generated.
func (r *Request) RemainingOutput() int {
	rem := r.OutputLen - r.Generated
	if rem < 0 {
		return 0
	}
	return rem
}

// Done reports whether all output tokens have been emitted.
func (r *Request) Done() bool { return r.Generated >= r.OutputLen }

// AdvancePrefill records n prompt tokens prefilled at time now. When the
// prefill completes, the first output token is emitted: Generated becomes
// at least 1 and FirstTokenAt is set once.
func (r *Request) AdvancePrefill(n int, now sim.Time) {
	if n <= 0 || n > r.RemainingPrefill() {
		panic(fmt.Sprintf("request %d: AdvancePrefill(%d) with %d remaining",
			r.ID, n, r.RemainingPrefill()))
	}
	r.PrefilledTokens += n
	if r.RemainingPrefill() == 0 && r.Generated == 0 {
		// Prefill completion emits the first output token. In a
		// recompute incarnation (Generated > 0) completion merely
		// rebuilds the dropped KV; decode resumes next iteration.
		r.FirstTokenAt = now
		r.Generated = 1
	}
}

// AdvanceDecodeBy records n decode tokens at once: the write-back of an
// engine that counts steady decode tokens itself.
func (r *Request) AdvanceDecodeBy(n int) {
	if r.InPrefill() {
		panic(fmt.Sprintf("request %d: decode during prefill", r.ID))
	}
	if n <= 0 {
		panic(fmt.Sprintf("request %d: AdvanceDecodeBy(%d)", r.ID, n))
	}
	if r.Generated+n > r.OutputLen {
		panic(fmt.Sprintf("request %d: decode after done", r.ID))
	}
	r.Generated += n
}

// EndWait clears WaitStart and returns the wait's length at now; ok is
// false when no wait was stamped.
func (r *Request) EndWait(now sim.Time) (waited sim.Duration, ok bool) {
	if r.WaitStart == NoWait {
		return 0, false
	}
	waited = now.Sub(r.WaitStart)
	r.WaitStart = NoWait
	return waited, true
}

// ResetForRecompute drops all prefill progress (the KVCache was dropped)
// while keeping generated-token credit: the re-prefill must rebuild
// InputLen + Generated - 1 tokens of KV.
func (r *Request) ResetForRecompute() {
	r.PrefilledTokens = 0
	r.prefillTarget = r.InputLen
	if r.Generated > 0 {
		r.prefillTarget = r.InputLen + r.Generated - 1
	}
	r.Seq = nil
}
