// Package engine is the role-aware execution engine behind a serving
// group: it owns the group's request sets (wait queue, running, stalled)
// and runs its scheduling rounds. A round is one straight sequence of
// steps — the policy hook, admission, schedulable collection, iteration
// forming, KV reservation, launch — and the group's Role selects which
// steps run and which request states the group accepts:
//
//   - Collocated (the default) runs every step and serves the full
//     request lifecycle.
//   - Prefill admits new arrivals and runs prefill chunks only; a
//     completed prefill is handed to the policy (KV handoff to a decode
//     group) instead of decoding locally.
//   - Decode never admits from its queue — requests arrive pre-filled via
//     KV handoff adoption — and runs decode steps only.
//
// A single-stage round runs on the instance's timer as one event; a
// pipelined one runs its microbatches through a pipeline.Engine.
//
// The engine is deliberately cluster-agnostic: everything it needs from
// the policy layer (pressure handling, microbatch forming, handoff)
// arrives through Callbacks, so the cluster package wires it without the
// engine importing it back.
package engine

import (
	"cmp"
	"fmt"
	"slices"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/obs"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
)

// Role selects which steps of the scheduling round a group runs and
// which requests it accepts.
type Role int

const (
	// RoleCollocated serves prefill and decode interleaved on one pool —
	// the classic continuous-batching engine every collocated system uses.
	RoleCollocated Role = iota
	// RolePrefill serves prompt processing only: it admits new arrivals,
	// runs prefill chunks, and hands completed prefills off.
	RolePrefill
	// RoleDecode serves token generation only: requests are adopted with
	// their KV already resident (shipped by a handoff), never admitted
	// from the wait queue.
	RoleDecode
)

var roleNames = map[Role]string{
	RoleCollocated: "collocated",
	RolePrefill:    "prefill",
	RoleDecode:     "decode",
}

func (r Role) String() string {
	if n, ok := roleNames[r]; ok {
		return n
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// AdmitsNewArrivals reports whether the dispatcher may route new requests
// to a group of this role. Decode groups only receive work via handoff.
func (r Role) AdmitsNewArrivals() bool { return r != RoleDecode }

// RunsPrefill reports whether the role schedules prefill chunks.
func (r Role) RunsPrefill() bool { return r != RoleDecode }

// RunsDecode reports whether the role schedules decode steps.
func (r Role) RunsDecode() bool { return r != RolePrefill }

// Callbacks connect the engine to the policy layer; cluster.Group, which
// embeds the engine, routes each one to the cluster or its Policy. All
// fields except Handoff are required.
type Callbacks struct {
	// BeforeAdmit runs at the start of every scheduling round (the
	// cluster routes it to Policy.BeforeAdmit).
	BeforeAdmit func()
	// HandlePressure is invoked when the group is need blocks short of
	// KVCache; it returns true when blocks were freed immediately.
	HandlePressure func(need int) bool
	// Form splits one pipelined iteration into microbatches formed into s
	// (the engine's own scratch, see batching.Split): dec is the round's
	// decode steps in lane order and items its item decodes, in the same
	// order, then its prefill chunks. It runs only at launch, on the
	// simulation goroutine.
	Form func(s *batching.Split, dec []batching.Decode, items []batching.Item, stages int) []batching.Microbatch
	// Finished runs after a request completes and its record is
	// collected (the cluster decrements its outstanding count and may
	// recycle the request struct — the engine holds no reference past
	// this call). It must not act on other requests: finishRound advances
	// a round's fast tokens before its items, whatever their lane order.
	Finished func(r *request.Request)
	// Handoff takes over a prefill-role group's completed prefill; it
	// returns true when the policy accepted the request (stalling it for
	// the KV transfer). Required for RolePrefill, ignored otherwise.
	Handoff func(r *request.Request) bool
	// LoadChanged, when set, fires on the FIRST change to the engine's
	// demand accounting (queue pushes and pops, running-set membership,
	// decode growth) since the cluster last acknowledged with
	// AckLoadNotify. The edge-triggered contract keeps the hot mutation
	// path to one local branch per delta: the cluster marks the group
	// dirty once, re-keys it in the dispatch index at its next sync point,
	// and re-arms the notification — so the index is never rebuilt by
	// scanning the fleet.
	LoadChanged func()
}

// Options assemble an engine for one group.
type Options struct {
	// GroupID labels panics and request bookkeeping.
	GroupID int
	// Sim is the owning simulation kernel.
	Sim *sim.Simulation
	// Pool is the group's KV block pool.
	Pool *kvcache.Pool
	// Timer prices a single-stage group's rounds: required at Depth 1.
	// Pipeline runs a pipelined group's microbatches: required above it,
	// unset at it.
	Timer    *gpu.Timer
	Pipeline *pipeline.Engine
	// Queue is the group's wait-queue discipline.
	Queue sched.Discipline
	// Collector receives metrics observations.
	Collector *metrics.Collector
	// Budget bounds one stage's iteration batch; the engine scales it by
	// Depth the way vLLM gives every in-flight virtual engine a budget.
	Budget batching.Budget
	// Depth is the pipeline stage count (1 = plain execution).
	Depth int
	// RetryDelay is the sleep before retrying a fully pressure-blocked
	// round.
	RetryDelay sim.Duration
	// Tracer receives structured observability events; nil (the default)
	// disables tracing with zero cost on the scheduling path.
	Tracer obs.Tracer
	// Req tracks per-request lifecycle spans; nil when tracing is off
	// (its methods are nil-receiver-safe, so call sites stay unguarded).
	Req *obs.ReqTracker
	// Callbacks wire the policy layer in.
	Callbacks Callbacks
}

// Engine runs one group's scheduling rounds.
type Engine struct {
	role    Role
	groupID int

	simu  *sim.Simulation
	pool  *kvcache.Pool
	timer *gpu.Timer
	pipe  *pipeline.Engine
	queue sched.Discipline
	col   *metrics.Collector
	cb    Callbacks

	// tr/rt are nil unless tracing is enabled (Options.Tracer set).
	tr obs.Tracer
	rt *obs.ReqTracker
	// roundStart stamps the launch of the in-flight round so finishRound
	// can emit its duration slice. Only maintained while tracing.
	roundStart sim.Time

	budget     batching.Budget
	depth      int
	retryDelay sim.Duration

	// lane is the engine's only membership structure: one slot per running
	// request in (Arrival, ID) order — the order runCollect schedules in —
	// owning each request's decode-hot state (see slot). Membership changes
	// (admissions, finishes, preemptions) are far rarer than scheduling
	// rounds, so keeping the order under insert/remove beats re-sorting
	// every round. Admission order, which Running and ExtractRequests
	// expose, is recovered on demand by sorting live slot indices by
	// slot.adm into order.
	lane  []slot
	order []int32
	// admitted numbers admissions for slot.adm.
	admitted uint64
	// dead counts removed slots awaiting compactLane (see removeAt).
	// firstDead is the lowest dead index while dead > 0, where compactLane
	// starts, and skipTail counts the dead or stalled slots at the lane's
	// young end, which Victim skips without a visit: a pressure burst
	// preempts or swaps out the youngest requests one after another.
	// remap is compactLane's old-to-new index scratch.
	dead, firstDead, skipTail int
	remap                     []int32
	// hint is the lane index Victim last chose. laneIndex tries it first, by
	// identity, so the Victim→PreemptRecompute and Victim→Stall pairs
	// search the lane once; a stale hint costs only the normal search.
	hint int
	// preemptions counts PreemptDetach calls (diagnostics only).
	preemptions int
	// fastDecodes counts decode tokens collect took on the fast path, and
	// walkRounds the collects that walked the lane (diagnostics only).
	fastDecodes, walkRounds int
	// pending is set while some slot may hold tokens not yet written back;
	// writeBackAll skips its walk otherwise.
	pending bool
	// The epoch lane (see runCollect). While epochOn holds, every hot slot
	// is relative (in the fast set, with a wheel entry at its due epoch),
	// an item of the live round, or loose (its lane index on loose, placed
	// at the next collect), and every cold slot's lane index is on cold,
	// kept in lane order. epoch counts epoch rounds; epochStamp is the
	// stamp of the latest one, which every relative slot advanced in. relN
	// and relCtx are the fast set's size and Σctx as of epoch. due is
	// collect's scratch for the round's due slots.
	epochOn      bool
	epoch        uint64
	epochStamp   uint64
	relN, relCtx int
	wheel        wheel
	loose, cold  []int32
	due          []int32

	// nStalled counts the live slots whose stalled bit is set.
	nStalled int
	// nAwaitDecode counts the running requests that await their first
	// decode after a handoff: MarkDecodeReady stamped their WaitStart,
	// and that decode reads and clears it. Only decode-role engines
	// count any.
	nAwaitDecode int

	executing  bool
	scheduling bool // guards re-entrant startRound from policy callbacks
	draining   bool
	onDrained  func()
	closed     bool

	// curStamp is the current round's reservation stamp. runReserve
	// stamps each reserved request's slot with it, and Victim skips slots
	// carrying the current stamp — the map-free form of a
	// locked-this-round set (bumping the stamp clears the whole set).
	// Stamps embed the group ID in the high bits and a fresh slot starts
	// at zero, so a request adopted from another engine never carries a
	// matching stale stamp.
	curStamp uint64

	// roundsRun counts completed scheduling rounds (diagnostics only).
	roundsRun int

	// hook, set by tests only, runs at round start with step "start" and
	// after each step with its name, where a traced round emits instants.
	hook func(step string)

	// rd is the per-round scratch state, reused across rounds: at most one
	// round is in flight per engine, and finishRound consumes rd.items
	// before the next round can start.
	rd round
	// work is a single-stage round's chunk list, reused across rounds.
	work []gpu.ChunkWork
	// split is the microbatch scratch pipelined groups form into. The
	// pipeline holds the microbatches only until the round ends, and one
	// round runs at a time, so one Split per engine suffices.
	split batching.Split
	// finishFn is the launch step's completion closure, built once so a
	// round launch allocates nothing.
	finishFn func()
	// wakeFn is the persistent method-value closure for retry events (one
	// allocation at construction, none per blocked round).
	wakeFn func()

	// demandTokens holds DemandTokens' value incrementally: every queue
	// push/pop and running add/remove applies the joining or leaving
	// request's contribution, and runReserve applies a round's decode
	// growth as one delta. Least-loaded dispatch reads every group's demand
	// on every arrival; recomputing by walking queue and running there is a
	// fleet-wide population scan per arrival and was the dominant cost of
	// cluster-scale sweeps. TestDemandAccountingInvariant pins it to the
	// ground-truth walk.
	demandTokens int
	// loadNotified is the edge-trigger latch for Callbacks.LoadChanged:
	// set by the first demand delta after an AckLoadNotify, cleared by the
	// cluster once it has folded the exact DemandTokens at a sync point.
	loadNotified bool
}

// slot is one running request's entry in the engine's lane. A hot slot —
// running, unstalled, past its prefill, on a role that decodes — owns the
// request's decode-hot state, so a steady decode token moves by touching
// the slot alone; the Request and its Seq catch up at the next write-back.
// A cold slot (prefilling, stalled, or on a prefill role) leaves the
// Request authoritative, and every step reads it there; it is never a
// decode.
//
// A hot slot whose Seq has a counted tail (slotCounted, see
// kvcache.Seq.CountedTail) takes its block crossings on the slot too,
// whenever no reservation of the round can reach the pressure callback:
// it claims the next block from the pool (kvcache.Pool.ClaimCounted) and
// resets room to the block size, and the write-back books the blocks its
// tokens crossed into. Between write-backs the Seq's block count lags the
// pool's, as its token count lags the slot's.
//
// A relative slot (slotRel) is a hot slot in the epoch lane's fast set: its
// counters are as of lane epoch base, and every epoch round since then
// advanced it by one token, so its current ctx, gen and kv are the stored
// values plus epoch − base, and its left and room the stored values minus
// it. materialize applies that delta; nothing else reads a relative slot's
// counters. Its next check is due at epoch due, the epoch at which
// min(room, left−1) reaches zero (or sooner: see relate). Any other slot
// holds its counters as they are. In a walk round (see runCollect) collect
// reserves and advances a fast slot's token in place, and in an epoch
// round a due slot's crossing; in either kind of round collect, reserve
// and finish visit every other decode through the token's item.
//
// A stalled slot (slotStalled) holds a request in a stall state: swapped,
// migrating, exchanging or handing off. Stall sets the bit and Unstall
// clears it, and an adopted request brings it in its state, so the bit
// always mirrors the request's state (CheckLane checks it). It lets Victim,
// EachStalled and collect pass a stalled slot by without loading its
// Request.
//
// Write-backs happen where a running request becomes visible outside the
// engine: Running, Victim, Stall, RemoveRequest, PreemptDetach and
// ExtractRequests, and before a finished request reaches
// Callbacks.Finished. Each materializes the slot first, then commits its
// tokens and books its crossings. EachStalled needs none: a stalled slot is cold and was written back by Stall. Prefill-role
// slots are never hot, so a request passed to Callbacks.Handoff has nothing
// pending.
type slot struct {
	// req is nil once the slot is dead: removed during a live round and
	// awaiting compactLane, with its keys kept so the lane stays sorted.
	req     *request.Request
	arrival sim.Time
	id      int
	// stamp is the round stamp of the slot's last reservation, except on a
	// relative slot advanced since base, whose stamp is epochStamp (see
	// stampOf).
	stamp uint64
	// adm is the admission sequence number. Sorting live slots by it
	// recovers admission order, and Victim breaks ties among equal
	// arrivals by it: the earliest admitted wins.
	adm uint64
	// base and due are a relative slot's epochs (see above).
	base, due uint64
	// ctx is Request.ContextLen and left is OutputLen − Generated, both
	// counting the slot's pending tokens (hot slots only).
	ctx, left int32
	// room is how many more tokens the Seq's tail block takes with no
	// block-level work: Seq.Room net of kv, or, past a crossing the slot
	// took, what the block it claimed has left.
	room int32
	// gen counts decoded tokens not yet added to Request.Generated, and
	// kv reserved tokens not yet committed to the Seq.
	gen, kv int32
	flags   slotFlags
}

// slotFlags are a slot's bits, one byte so the slot stays 80 bytes.
type slotFlags uint8

const (
	slotHot slotFlags = 1 << iota
	slotRel
	slotStalled
	// slotFast marks a materialized slot that took the round stamped
	// stamp's token on the fast path. While that round's fast tokens are in
	// flight (see inFlight) ctx, left and gen already count the token; a
	// Stall drops it and an Unstall in the same round takes it back.
	slotFast
	// slotCounted marks a hot slot whose Seq has a counted tail.
	slotCounted
)

func (s *slot) is(f slotFlags) bool { return s.flags&f != 0 }

func (s *slot) set(f slotFlags, on bool) {
	if on {
		s.flags |= f
	} else {
		s.flags &^= f
	}
}

// wheelSize is the timing wheel's bucket count, a power of two. A relative
// slot is checked at most wheelSize−1 epochs out. room ≤ BlockTokens, so at
// the default 64-token block every check is the slot's real due round; a
// larger block only costs a re-check per lap.
const wheelSize = 64

// wheel is a timing wheel of lane indices by due epoch: bucket heads and
// next links are 1-based indices into ents (0 ends a list), and released
// entries go on a free list, so a warmed wheel allocates nothing. Entries
// are never unlinked early; a stale one is skipped when its bucket is
// taken. Like every lane index the epoch lane holds, an entry's lane
// follows its slot across lane edits (see remapEpoch), and turns −1 when
// the slot leaves the lane.
type wheel struct {
	head [wheelSize]int32
	ents []wheelEnt
	free int32
}

type wheelEnt struct {
	lane, next int32
}

// push files lane index i under epoch at.
func (w *wheel) push(at uint64, i int32) {
	n := w.free
	if n != 0 {
		w.free = w.ents[n-1].next
	} else {
		w.ents = append(w.ents, wheelEnt{})
		n = int32(len(w.ents))
	}
	b := at & (wheelSize - 1)
	w.ents[n-1] = wheelEnt{lane: i, next: w.head[b]}
	w.head[b] = n
}

// take detaches epoch at's bucket and returns its first entry.
func (w *wheel) take(at uint64) int32 {
	b := at & (wheelSize - 1)
	n := w.head[b]
	w.head[b] = 0
	return n
}

// release returns entry n to the free list and returns its successor and
// lane index.
func (w *wheel) release(n int32) (next, i int32) {
	ent := &w.ents[n-1]
	next, i = ent.next, ent.lane
	ent.lane, ent.next = -1, w.free
	w.free = n
	return next, i
}

func (w *wheel) reset() {
	w.head = [wheelSize]int32{}
	w.ents = w.ents[:0]
	w.free = 0
}

// New assembles an engine in the collocated role. It panics unless a
// Timer backs Depth 1 or a Pipeline of Depth stages backs a deeper one.
func New(opts Options) *Engine {
	if opts.Depth == 1 && opts.Timer == nil || opts.Depth != 1 && opts.Pipeline == nil ||
		opts.Pipeline != nil && opts.Pipeline.Stages() != opts.Depth {
		panic(fmt.Sprintf("engine: group %d has no executor for depth %d", opts.GroupID, opts.Depth))
	}
	e := &Engine{
		role:       RoleCollocated,
		groupID:    opts.GroupID,
		simu:       opts.Sim,
		pool:       opts.Pool,
		timer:      opts.Timer,
		pipe:       opts.Pipeline,
		queue:      opts.Queue,
		col:        opts.Collector,
		cb:         opts.Callbacks,
		budget:     opts.Budget,
		depth:      opts.Depth,
		retryDelay: opts.RetryDelay,
		tr:         opts.Tracer,
		rt:         opts.Req,
		curStamp:   uint64(opts.GroupID+1) << 40,
	}
	e.finishFn = func() { e.finishRound(e.rd.items) }
	e.wakeFn = e.Wake
	return e
}

// Role returns the engine's execution role.
func (e *Engine) Role() Role { return e.role }

// SetRole switches the engine's role, and so the steps its rounds run.
// Only legal before any request has reached the group.
func (e *Engine) SetRole(role Role) error {
	if e.RunningLen() > 0 || e.queue.Len() > 0 || e.executing {
		return fmt.Errorf("engine: group %d role change with requests in flight", e.groupID)
	}
	e.role = role
	return nil
}

// round carries one scheduling round's state between steps: collect
// leaves the decode steps in items, the prefilling requests' lane indices
// in prefills and the fast decodes' aggregate in fast, and form completes
// items. In a pipelined round collect also records every decode in dec,
// in lane order, for the former; form and reserve keep it to the decodes
// that stay in the round.
type round struct {
	prefills []int32
	items    []batching.Item
	dec      []batching.Decode
	// gone is reserve's scratch: the ordinals, among dec's item decodes,
	// of the ones reservation dropped.
	gone []int32
	// fast prices the decode tokens collect reserved and advanced with no
	// item: the fast set's tokens and the due slots' crossings in an epoch
	// round, the walk's fast slots in a walk round. It is fixed at collect — like a reserved item, a
	// fast token dropped later in the round is still priced — and cleared
	// when finishRound begins, so fast.N > 0 marks the fast tokens in
	// flight. live counts the in-flight fast tokens that still finish: a
	// Stall or a removal drops one and an Unstall takes it back.
	fast    gpu.DecodeSum
	live    int
	hadWork bool
}

// Queue returns the wait-queue discipline.
func (e *Engine) Queue() sched.Discipline { return e.queue }

// Running returns a copy of the running set in admission order (policies
// iterate it while mutating engine state), written back first.
func (e *Engine) Running() []*request.Request {
	e.writeBackAll()
	ord := e.liveByAdmission()
	out := make([]*request.Request, len(ord))
	for k, i := range ord {
		out[k] = e.lane[i].req
	}
	return out
}

// EachStalled visits the stalled running requests in lane order, by
// (Arrival, ID), without copying them. fn must not admit, remove, or
// re-queue requests, nor call Running or EachStalled, which collect into
// the scratch the visit walks. It writes nothing back: Stall wrote each
// one back and left its slot cold. The search runs from the lane's young
// end, where victims stall, and stops at the nStalled-th stalled slot;
// the slots found are reversed into lane order.
func (e *Engine) EachStalled(fn func(r *request.Request)) {
	if e.nStalled == 0 {
		return
	}
	ord := e.order[:0]
	for i := len(e.lane) - 1; i >= 0 && len(ord) < e.nStalled; i-- {
		if e.lane[i].is(slotStalled) {
			ord = append(ord, int32(i))
		}
	}
	slices.Reverse(ord)
	e.order = ord
	for _, i := range ord {
		fn(e.lane[i].req)
	}
}

// liveByAdmission returns the live slots' lane indices in admission order,
// in the engine's order scratch.
func (e *Engine) liveByAdmission() []int32 {
	ord := e.order[:0]
	for i := range e.lane {
		if e.lane[i].req != nil {
			ord = append(ord, int32(i))
		}
	}
	slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(e.lane[a].adm, e.lane[b].adm) })
	e.order = ord
	return ord
}

// Closed reports whether the engine has been dissolved.
func (e *Engine) Closed() bool { return e.closed }

// Draining reports whether Drain has been called.
func (e *Engine) Draining() bool { return e.draining }

// Executing reports whether a round is in flight.
func (e *Engine) Executing() bool { return e.executing }

// QueueLen returns the number of waiting requests.
func (e *Engine) QueueLen() int { return e.queue.Len() }

// RunningLen returns the number of admitted requests.
func (e *Engine) RunningLen() int { return len(e.lane) - e.dead }

// Preemptions returns how many requests PreemptDetach (and so
// PreemptRecompute) has dropped for recomputation (diagnostics only).
func (e *Engine) Preemptions() int { return e.preemptions }

// FastDecodes returns how many decode tokens collect reserved and advanced
// in place, with no item (diagnostics only).
func (e *Engine) FastDecodes() int { return e.fastDecodes }

// RoundsRun returns completed scheduling rounds (diagnostics).
func (e *Engine) RoundsRun() int { return e.roundsRun }

// WalkRounds returns how many collects walked the whole lane instead of
// taking the epoch lane (diagnostics only).
func (e *Engine) WalkRounds() int { return e.walkRounds }

// demandAdd is the single mutation point for demandTokens; the first delta
// since the last AckLoadNotify raises the edge-triggered LoadChanged so the
// dispatch index stays in lockstep with the accounting. Queue-depth changes always ride along: every queue
// push/pop moves demand by the request's prompt, so one notification covers
// both signals. In the steady state (a round's burst of deltas between two
// cluster syncs) this is one predictable branch per delta, not a callback.
func (e *Engine) demandAdd(delta int) {
	e.demandTokens += delta
	if !e.loadNotified && e.cb.LoadChanged != nil {
		e.loadNotified = true
		e.cb.LoadChanged()
	}
}

// AckLoadNotify re-arms LoadChanged after the cluster has read the exact
// DemandTokens at a sync point. Pairs with the edge-triggered contract on
// Callbacks.LoadChanged.
func (e *Engine) AckLoadNotify() { e.loadNotified = false }

// Enqueue adds a request to the wait queue under the group's discipline.
// A prefill-role engine stamps the request's WaitStart, so its
// prefill-queue wait measures from this queue entry.
func (e *Engine) Enqueue(r *request.Request) {
	r.GroupID = e.groupID
	e.demandAdd(r.PrefillTarget())
	if e.role == RolePrefill {
		r.WaitStart = e.simu.Now()
	}
	e.queue.Push(r)
	e.traceQueued(r, "enqueue")
	e.Wake()
}

// EnqueueFront re-queues a preempted request ahead of new arrivals (FCFS
// places it literally first; ordered disciplines fold it into their order).
func (e *Engine) EnqueueFront(r *request.Request) {
	r.GroupID = e.groupID
	e.demandAdd(r.PrefillTarget())
	if e.role == RolePrefill {
		r.WaitStart = e.simu.Now()
	}
	e.queue.PushFront(r)
	e.traceQueued(r, "requeue")
}

func (e *Engine) traceQueued(r *request.Request, name string) {
	if e.tr != nil {
		e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
			Cat: obs.CatQueue, Name: name, Group: e.groupID, Track: "queue",
			Req:  r.ID,
			Args: [2]obs.Arg{{Key: "depth", Val: int64(e.queue.Len())}}})
	}
	e.rt.Transition(e.simu.Now(), r.ID, "queued", e.groupID)
}

// Wake starts a scheduling round if the group is idle.
func (e *Engine) Wake() {
	if e.executing || e.closed || e.draining {
		return
	}
	e.startRound()
}

// Stall excludes a request running here from scheduling (swap,
// migration, KVCache exchange, or handoff in flight) after moving it to
// the given stall state. Its slot is written back, turns cold and is
// marked stalled.
func (e *Engine) Stall(r *request.Request, st request.State) {
	if !st.Stalled() {
		panic(fmt.Sprintf("engine: stall of request %d to %v, not a stall state", r.ID, st))
	}
	i := e.laneIndex(r)
	if i < 0 {
		panic(fmt.Sprintf("engine: stall of request %d not running in group %d", r.ID, e.groupID))
	}
	s := &e.lane[i]
	e.unrelate(s)
	e.dropInFlight(s)
	e.writeBack(s)
	if s.is(slotHot) && e.epochOn {
		e.addCold(int32(i))
	}
	s.set(slotHot|slotCounted, false)
	r.SetState(st)
	s.set(slotStalled, true)
	e.nStalled++
	e.growSkipTail()
	e.rt.Transition(e.simu.Now(), r.ID, st.String(), e.groupID)
}

// Unstall resumes a request stalled here. It panics unless the request
// has a stalled slot in this engine's lane.
func (e *Engine) Unstall(r *request.Request) {
	i := e.laneIndex(r)
	if i < 0 || !e.lane[i].is(slotStalled) {
		panic(fmt.Sprintf("engine: unstall of non-stalled request %d", r.ID))
	}
	s := &e.lane[i]
	s.set(slotStalled, false)
	e.nStalled--
	if n := len(e.lane); i >= n-e.skipTail {
		// Resumed inside the skipped tail: it is the youngest slot Victim
		// must visit now.
		e.skipTail = n - 1 - i
	}
	r.SetState(request.StateRunning)
	e.syncSlot(i)
	if e.inFlight(s) {
		// Stalled and resumed within its fast round: like a reserved
		// item's, its token finishes after all.
		e.takeInFlight(s)
	}
	if r.InPrefill() {
		e.rt.Transition(e.simu.Now(), r.ID, "prefill", e.groupID)
	} else {
		e.rt.Transition(e.simu.Now(), r.ID, "decode", e.groupID)
	}
	e.Wake()
}

// MarkDecodeReady stamps a handed-off request running in this
// decode-role engine as decode-ready now; its first decode advance
// reports the elapsed wait as the decode-queue stage delay.
func (e *Engine) MarkDecodeReady(r *request.Request) {
	if e.role != RoleDecode || r.WaitStart != request.NoWait {
		panic(fmt.Sprintf("engine: decode-ready mark of request %d in %v group %d",
			r.ID, e.role, e.groupID))
	}
	r.WaitStart = e.simu.Now()
	e.nAwaitDecode++
}

// forgetDecodeWait clears the decode-ready stamp of a request leaving
// this engine before its first decode.
func (e *Engine) forgetDecodeWait(r *request.Request) {
	if e.nAwaitDecode > 0 && r.WaitStart != request.NoWait {
		r.WaitStart = request.NoWait
		e.nAwaitDecode--
	}
}

// Victim returns the youngest running, unstalled request whose KV was not
// reserved in the current round — the standard preemption victim — or nil.
// Among equal arrivals the earliest admitted wins. The scan starts at the
// lane's youngest end, past the dead or stalled slots that end it
// (skipTail), and stops once arrivals fall below the first eligible one's;
// only the chosen slot is written back, and its index becomes laneIndex's
// hint for the preemption or stall that follows.
func (e *Engine) Victim() *request.Request {
	v := -1
	for i := len(e.lane) - 1 - e.skipTail; i >= 0; i-- {
		s := &e.lane[i]
		if v >= 0 && s.arrival != e.lane[v].arrival {
			break
		}
		if s.is(slotStalled) || e.stampOf(s) == e.curStamp || s.req == nil || !s.is(slotHot) && s.req.Done() {
			continue
		}
		if v < 0 || s.adm < e.lane[v].adm {
			v = i
		}
	}
	if v < 0 {
		return nil
	}
	s := &e.lane[v]
	e.writeBack(s)
	e.hint = v
	return s.req
}

// PreemptRecompute drops a running request's KVCache and re-queues it for
// recomputation (the vLLM default and everyone's last resort). Under
// prefix caching the drop is not a void: the victim's shared-prefix blocks
// land on the pool's cached list, so its re-admission — and every other
// request with the same prefix — skips that part of the re-prefill unless
// pressure evicted the blocks in between.
func (e *Engine) PreemptRecompute(r *request.Request) {
	e.PreemptDetach(r)
	e.EnqueueFront(r)
}

// PreemptDetach is PreemptRecompute without the local re-queue: the
// victim's KVCache drops and it resets to queued, but where it re-prefills
// is the caller's choice. Role-split policies use it to reroute a decode
// pool's victim to a prefill group (decode groups run no prefill stage).
func (e *Engine) PreemptDetach(r *request.Request) {
	e.removeRunning(r)
	e.preemptions++
	e.forgetDecodeWait(r)
	if r.Seq != nil {
		r.Seq.Free()
	}
	r.SetState(request.StatePreempted)
	r.ResetForRecompute()
	r.SetState(request.StateQueued)
	if e.tr != nil {
		e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
			Cat: obs.CatCore, Name: "preempt", Group: e.groupID,
			Track: "preempt", Req: r.ID})
	}
	e.rt.Transition(e.simu.Now(), r.ID, "preempted", e.groupID)
}

// RemoveRequest detaches a running request from the engine without freeing
// its sequence (migration and handoff hand both to the destination).
func (e *Engine) RemoveRequest(r *request.Request) {
	e.removeRunning(r)
	e.forgetDecodeWait(r)
}

// AdoptRunning adds an already-admitted request (with a live Seq in this
// group's pool) to the running set. A request adopted in a stall state
// stays stalled here.
func (e *Engine) AdoptRunning(r *request.Request) {
	r.GroupID = e.groupID
	e.addRunning(r)
}

// bySlotOrder compares a slot with a request in lane order: by arrival,
// then ID. (Arrival, ID) is a strict total order — IDs are unique.
func bySlotOrder(s *slot, r *request.Request) int {
	if s.arrival != r.Arrival {
		if s.arrival < r.Arrival {
			return -1
		}
		return 1
	}
	return s.id - r.ID
}

// search returns the index of the first slot not ordered before r. It is
// slices.BinarySearchFunc written out so the comparison inlines and reads
// the slot in place rather than copying it per probe.
func (e *Engine) search(r *request.Request) int {
	lo, hi := 0, len(e.lane)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bySlotOrder(&e.lane[m], r) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// laneIndex returns r's slot index, or -1 when r is not running here. It
// tries Victim's hint first. A request removed and re-adopted within one
// live round has a dead twin with its keys, so both the hint and the
// search check identity, not just the keys.
func (e *Engine) laneIndex(r *request.Request) int {
	if h := e.hint; h < len(e.lane) && e.lane[h].req == r {
		return h
	}
	i := e.search(r)
	for ; i < len(e.lane) && bySlotOrder(&e.lane[i], r) == 0; i++ {
		if e.lane[i].req == r {
			return i
		}
	}
	return -1
}

// live reports whether a round's items hold lane indices: from the first
// step until finishRound has consumed them.
func (e *Engine) live() bool { return e.scheduling || e.executing }

func (e *Engine) addRunning(r *request.Request) {
	e.demandAdd(committedTokens(r))
	i := e.search(r)
	stalled := r.State().Stalled()
	e.lane = slices.Insert(e.lane, i, slot{req: r, arrival: r.Arrival, id: r.ID, adm: e.admitted})
	e.admitted++
	if stalled {
		e.lane[i].set(slotStalled, true)
		e.nStalled++
	}
	if e.dead > 0 && i <= e.firstDead {
		e.firstDead++
	}
	if n := len(e.lane); i >= n-1-e.skipTail {
		// Inserted into (or just past) the skipped tail: a stalled slot
		// lengthens it, and any other is now the youngest Victim visits.
		if stalled {
			e.skipTail++
		} else {
			e.skipTail = n - 1 - i
		}
	}
	if e.live() {
		e.shiftLanes(i)
	}
	if i < len(e.lane)-1 {
		// An insert at the young end, the usual admission, moves no index.
		e.remapEpoch(laneEdit{lo: int32(i)})
	}
	e.syncSlot(i)
	if e.epochOn && !e.lane[i].is(slotHot) {
		e.addCold(int32(i))
	}
}

func (e *Engine) removeRunning(r *request.Request) {
	i := e.laneIndex(r)
	if i < 0 {
		panic(fmt.Sprintf("engine: request %d not running in group %d", r.ID, e.groupID))
	}
	e.removeAt(i)
}

// removeAt writes slot i back and drops its request from the running set.
// The slot only dies in place, and compactLane deletes dead slots in bulk
// (see compactIfSparse): finishes and preemptions come in bursts, and
// re-indexing the lane per removal would make a burst quadratic in the
// batch.
func (e *Engine) removeAt(i int) {
	s := &e.lane[i]
	e.unrelate(s)
	e.dropInFlight(s)
	e.writeBack(s)
	e.demandAdd(-committedTokens(s.req))
	if s.is(slotStalled) {
		e.nStalled--
	}
	*s = slot{arrival: s.arrival, id: s.id}
	if e.dead == 0 || i < e.firstDead {
		e.firstDead = i
	}
	e.dead++
	e.growSkipTail()
}

// growSkipTail extends skipTail over the dead or stalled slots that now
// end the lane.
func (e *Engine) growSkipTail() {
	for n := len(e.lane); e.skipTail < n; e.skipTail++ {
		if s := &e.lane[n-1-e.skipTail]; s.req != nil && !s.is(slotStalled) {
			return
		}
	}
}

// compactIfSparse compacts the lane once dead slots make up an eighth of
// it. A dead slot costs a lane visit only a skip, while a compaction moves
// every slot above the first dead one and remaps every lane index the
// round and the epoch lane hold, so it runs once per burst of removals,
// not once per round with a finish.
func (e *Engine) compactIfSparse() {
	if e.dead > 0 && 8*e.dead >= len(e.lane) {
		e.compactLane()
	}
}

// compactLane deletes dead slots and remaps the current round's item lane
// indices to match; the items of a dead slot get -1. Slots and items below
// firstDead keep their indices, so neither is touched.
func (e *Engine) compactLane() {
	lo := e.firstDead
	remap := e.remap[:0]
	w := lo
	for i := lo; i < len(e.lane); {
		if e.lane[i].req == nil {
			remap = append(remap, -1)
			i++
			continue
		}
		// Move each run of live slots with one copy.
		j := i
		for ; j < len(e.lane) && e.lane[j].req != nil; j++ {
			remap = append(remap, int32(w+j-i))
		}
		w += copy(e.lane[w:], e.lane[i:j])
		i = j
	}
	clear(e.lane[w:])
	e.lane = e.lane[:w]
	for k := range e.rd.items {
		if it := &e.rd.items[k]; int(it.Lane) >= lo {
			it.Lane = remap[int(it.Lane)-lo]
		}
	}
	e.remapEpoch(laneEdit{lo: int32(lo), remap: remap})
	e.remap = remap
	e.dead, e.skipTail = 0, 0
	e.growSkipTail()
}

// shiftLanes keeps the current round's item lane indices valid across a
// lane insert at index at (an adoption while a round is live).
func (e *Engine) shiftLanes(at int) {
	for k := range e.rd.items {
		if it := &e.rd.items[k]; int(it.Lane) >= at {
			it.Lane++
		}
	}
}

// laneEdit is one lane edit as remapEpoch applies it: indices below lo
// keep their slots. At or above lo, index l moves to remap[l−lo] (−1 for a
// dead slot) when remap is set, by compactLane, and to l+1 otherwise, for
// an insert at lo.
type laneEdit struct {
	lo    int32
	remap []int32
}

func (ed *laneEdit) to(l int32) int32 {
	switch {
	case l < ed.lo:
		return l
	case ed.remap != nil:
		return ed.remap[l-ed.lo]
	}
	return l + 1
}

// remapEpoch keeps the epoch lane's lane indices valid across a lane
// edit. Lane edits are membership changes, far rarer than rounds.
func (e *Engine) remapEpoch(ed laneEdit) {
	if !e.epochOn {
		return
	}
	for k := range e.wheel.ents {
		if ent := &e.wheel.ents[k]; ent.lane >= ed.lo {
			ent.lane = ed.to(ent.lane)
		}
	}
	e.loose = ed.list(e.loose)
	e.cold = ed.list(e.cold)
}

// list applies the edit to a list of lane indices in place, dropping the
// ones whose slot left. The edit is monotonic, so a sorted list stays
// sorted.
func (ed *laneEdit) list(l []int32) []int32 {
	kept := 0
	for _, i := range l {
		if i = ed.to(i); i >= 0 {
			l[kept] = i
			kept++
		}
	}
	return l[:kept]
}

// syncSlot re-derives a cold or new slot i from its request: hot when the
// request is running unstalled past its prefill on a role that decodes,
// cold otherwise. Past its prefill, a request's context length steps by
// exactly one per decoded token. In the epoch lane a hot slot goes on
// loose; a cold one is on cold already, unless it is new (see addRunning).
func (e *Engine) syncSlot(i int) {
	s := &e.lane[i]
	r := s.req
	hot := e.role.RunsDecode() && r.State() == request.StateRunning && r.Seq != nil &&
		!r.InPrefill() && !r.Done()
	s.set(slotHot, hot)
	if !hot {
		s.set(slotCounted, false)
		return
	}
	s.ctx = int32(r.ContextLen())
	s.left = int32(r.OutputLen - r.Generated)
	e.syncTail(s)
	if e.epochOn {
		e.loose = append(e.loose, int32(i))
	}
}

// syncTail re-reads a hot slot's room and counted-tail bit from its Seq,
// which holds every token the slot reserved.
func (e *Engine) syncTail(s *slot) {
	seq := s.req.Seq
	s.room = int32(seq.Room())
	s.set(slotCounted, seq.CountedTail())
}

// addCold puts lane index i on the cold list, in lane order, unless it is
// there.
func (e *Engine) addCold(i int32) {
	if at, found := slices.BinarySearch(e.cold, i); !found {
		e.cold = slices.Insert(e.cold, at, i)
	}
}

// materialize brings a relative slot's counters up to the lane epoch. A
// slot the epoch moved took the latest epoch round's token on the fast
// path, so it gets that round's stamp, as the walk would have given it.
func (e *Engine) materialize(s *slot) {
	if !s.is(slotRel) {
		return
	}
	if d := int32(e.epoch - s.base); d > 0 {
		s.ctx += d
		s.left -= d
		s.room -= d
		s.gen += d
		s.kv += d
		s.base = e.epoch
		s.stamp = e.epochStamp
		s.set(slotFast, true)
	}
}

// relate puts hot slot i, with absolute counters, into the fast set, due
// when min(room, left−1) reaches zero, capped at one lap of the wheel; it
// reports false, leaving the slot alone, when the slot is due now.
func (e *Engine) relate(i int32) bool {
	s := &e.lane[i]
	d := min(s.room, s.left-1)
	if d <= 0 {
		return false
	}
	s.set(slotRel, true)
	s.base, s.due = e.epoch, e.epoch+uint64(min(d, wheelSize-1))
	e.relN++
	e.relCtx += int(s.ctx)
	e.wheel.push(s.due, i)
	return true
}

// unrelate takes a slot out of the fast set, materialized. Its wheel entry
// goes stale.
func (e *Engine) unrelate(s *slot) {
	if !s.is(slotRel) {
		return
	}
	e.materialize(s)
	s.set(slotRel, false)
	e.relN--
	e.relCtx -= int(s.ctx)
}

// stampOf is s's reservation stamp, materialized or not. Everything else
// that reads a slot's stamp or fast flag (inFlight, and so dropInFlight
// and takeInFlight) reads a materialized slot.
func (e *Engine) stampOf(s *slot) uint64 {
	if s.is(slotRel) && s.base != e.epoch {
		return e.epochStamp
	}
	return s.stamp
}

// writeBack catches a slot's request and Seq up with the tokens the slot
// counted since its last write-back, materializing it first: the Seq
// commits the reserved tokens and books the counted blocks the slot
// claimed for them (kvcache.Seq.Commit). An in-flight fast token
// stays on the slot: its KV is committed, but the request has not decoded
// it yet.
func (e *Engine) writeBack(s *slot) {
	e.materialize(s)
	gen := s.gen
	if e.inFlight(s) {
		gen--
	}
	if gen > 0 {
		s.req.AdvanceDecodeBy(int(gen))
		s.gen -= gen
	}
	if s.kv > 0 {
		s.req.Seq.Commit(int(s.kv))
		s.kv = 0
	}
}

// inFlight reports whether the materialized slot s holds a fast token of
// the round in flight.
func (e *Engine) inFlight(s *slot) bool {
	return e.rd.fast.N > 0 && s.flags&(slotFast|slotHot) == slotFast|slotHot && s.stamp == e.curStamp
}

// dropInFlight takes an in-flight fast token off a slot leaving the round
// (stalled or removed) the way finishRound skips a stalled or dead item:
// its KV stays reserved, but it is not decoded.
func (e *Engine) dropInFlight(s *slot) {
	if e.inFlight(s) {
		s.gen--
		s.ctx--
		s.left++
		e.rd.live--
	}
}

// takeInFlight puts a dropped fast token back on a slot resumed within
// its round; the KV it reserved is still in the Seq.
func (e *Engine) takeInFlight(s *slot) {
	s.gen++
	s.ctx++
	s.left--
	e.rd.live++
	e.pending = true
}

// writeBackAll catches every slot up before the running set is exposed.
func (e *Engine) writeBackAll() {
	if !e.pending {
		return
	}
	for i := range e.lane {
		e.writeBack(&e.lane[i])
	}
	e.pending = false
}

// CheckLane writes every slot back and checks the lane against ground
// truth: its slots stay in (Arrival, ID) order, laneIndex finds every live
// slot at its own index, admission numbers are unique, and dead, firstDead
// match the dead slots, and skipTail the dead or stalled slots that end
// the lane. Each live slot's stalled bit must match its request's state,
// and nStalled must count the set bits. On a
// decode role, nAwaitDecode must count the requests whose decode-ready
// WaitStart stamp is set; on any other role it must be zero. Nothing
// may stay pending but an in-flight fast token, and the slots holding one
// must number the round's live fast tokens. On a role that decodes, every
// running decode-ready request's slot must be hot. Every hot slot's context
// length, remaining output, tail room and counted-tail bit must equal what
// its request and Seq report (plus its in-flight fast token), with the Seq
// holding exactly the committed context (plus the in-flight token while a
// round executes); so the write-back booked every block the slot claimed.
// In the epoch lane, the fast set must be exactly the relative slots, with
// relN and relCtx their count and Σctx, each filed on the wheel at a due
// epoch no later than its real one; every other hot slot must be on loose
// or an item of the live round, and every cold slot on the lane-ordered
// cold list. It returns how many hot slots it checked. Audits and tests
// call it between rounds or while one executes; write-backs are invisible
// to the simulation, so calling it never changes results.
func (e *Engine) CheckLane() (hot int, err error) {
	e.writeBackAll()
	if err := e.checkEpoch(); err != nil {
		return 0, err
	}
	dead, live, stalled, awaiting := 0, 0, 0, 0
	adms := make([]uint64, 0, e.RunningLen())
	for i := range e.lane {
		s := &e.lane[i]
		r := s.req
		if r == nil {
			if dead == 0 && i != e.firstDead {
				return hot, fmt.Errorf("engine: group %d first dead slot at %d, firstDead %d",
					e.groupID, i, e.firstDead)
			}
			dead++
			continue
		}
		if i > 0 && bySlotOrder(&e.lane[i-1], r) > 0 {
			return hot, fmt.Errorf("engine: group %d lane out of order at request %d", e.groupID, r.ID)
		}
		if j := e.laneIndex(r); j != i {
			return hot, fmt.Errorf("engine: group %d request %d in slot %d is found at %d",
				e.groupID, r.ID, i, j)
		}
		adms = append(adms, s.adm)
		if s.is(slotStalled) != r.State().Stalled() {
			return hot, fmt.Errorf("engine: group %d request %d in state %v has stalled bit %v",
				e.groupID, r.ID, r.State(), s.is(slotStalled))
		}
		if s.is(slotStalled) {
			stalled++
		}
		if e.role == RoleDecode && r.WaitStart != request.NoWait {
			awaiting++
		}
		fast := int32(0)
		if e.inFlight(s) {
			fast = 1
			live++
		}
		if s.gen != fast || s.kv != 0 {
			return hot, fmt.Errorf("engine: group %d request %d still pending after write-back", e.groupID, r.ID)
		}
		if !s.is(slotHot) {
			if e.role.RunsDecode() && r.State() == request.StateRunning && !r.InPrefill() && !r.Done() {
				return hot, fmt.Errorf("engine: group %d cold slot for running decode-ready request %d",
					e.groupID, r.ID)
			}
			continue
		}
		hot++
		inflight := 0
		if e.executing && s.stamp == e.curStamp {
			inflight = 1
		}
		switch {
		case r.State() != request.StateRunning || r.Seq == nil || r.InPrefill() || r.Done():
			return hot, fmt.Errorf("engine: group %d hot slot for request %d in state %v",
				e.groupID, r.ID, r.State())
		case int(s.ctx-fast) != r.ContextLen():
			return hot, fmt.Errorf("engine: group %d request %d slot context %d (%d in flight), request %d",
				e.groupID, r.ID, s.ctx, fast, r.ContextLen())
		case int(s.left+fast) != r.OutputLen-r.Generated:
			return hot, fmt.Errorf("engine: group %d request %d slot has %d tokens left (%d in flight), request %d",
				e.groupID, r.ID, s.left, fast, r.OutputLen-r.Generated)
		case int(s.room) != r.Seq.Room():
			return hot, fmt.Errorf("engine: group %d request %d slot room %d, Seq %d",
				e.groupID, r.ID, s.room, r.Seq.Room())
		case s.is(slotCounted) != r.Seq.CountedTail():
			return hot, fmt.Errorf("engine: group %d request %d slot counted-tail bit %v, Seq %v",
				e.groupID, r.ID, s.is(slotCounted), r.Seq.CountedTail())
		case r.Seq.Tokens() != r.ContextLen()+inflight:
			return hot, fmt.Errorf("engine: group %d request %d Seq holds %d tokens, request committed %d",
				e.groupID, r.ID, r.Seq.Tokens(), r.ContextLen()+inflight)
		}
	}
	if dead != e.dead {
		return hot, fmt.Errorf("engine: group %d lane holds %d dead slots, counted %d", e.groupID, dead, e.dead)
	}
	if stalled != e.nStalled {
		return hot, fmt.Errorf("engine: group %d lane holds %d stalled slots, counted %d", e.groupID, stalled, e.nStalled)
	}
	if awaiting != e.nAwaitDecode {
		return hot, fmt.Errorf("engine: group %d lane holds %d requests awaiting their first decode, counted %d",
			e.groupID, awaiting, e.nAwaitDecode)
	}
	if live != e.rd.live {
		return hot, fmt.Errorf("engine: group %d lane holds %d in-flight fast tokens, round counts %d",
			e.groupID, live, e.rd.live)
	}
	tail := 0
	for ; tail < len(e.lane); tail++ {
		if s := &e.lane[len(e.lane)-1-tail]; s.req != nil && !s.is(slotStalled) {
			break
		}
	}
	if tail != e.skipTail {
		return hot, fmt.Errorf("engine: group %d lane ends in %d dead or stalled slots, counted %d",
			e.groupID, tail, e.skipTail)
	}
	slices.Sort(adms)
	for k := 1; k < len(adms); k++ {
		if adms[k] == adms[k-1] {
			return hot, fmt.Errorf("engine: group %d admission number %d repeats", e.groupID, adms[k])
		}
	}
	return hot, nil
}

// checkEpoch checks the epoch lane's structures against the materialized
// lane (see CheckLane).
func (e *Engine) checkEpoch() error {
	relN, relCtx := 0, 0
	for i := range e.lane {
		s := &e.lane[i]
		if s.is(slotRel) {
			relN++
			relCtx += int(s.ctx)
		}
	}
	if !e.epochOn {
		if relN != 0 || e.relN != 0 || len(e.loose)+len(e.cold) != 0 {
			return fmt.Errorf("engine: group %d holds %d relative slots (counted %d) and %d keys off the epoch lane",
				e.groupID, relN, e.relN, len(e.loose)+len(e.cold))
		}
		return nil
	}
	if relN != e.relN || relCtx != e.relCtx {
		return fmt.Errorf("engine: group %d fast set holds %d slots with Σctx %d, counted %d and %d",
			e.groupID, relN, relCtx, e.relN, e.relCtx)
	}
	for k := 1; k < len(e.cold); k++ {
		if e.cold[k-1] >= e.cold[k] {
			return fmt.Errorf("engine: group %d cold list out of lane order", e.groupID)
		}
	}
	for i := range e.lane {
		s := &e.lane[i]
		if s.req == nil {
			continue
		}
		k := int32(i)
		switch {
		case s.is(slotRel):
			if s.due < e.epoch || s.due-e.epoch > uint64(min(s.room, s.left-1)) || s.due-e.epoch >= wheelSize {
				return fmt.Errorf("engine: group %d request %d due at epoch %d, now %d, room %d, left %d",
					e.groupID, s.id, s.due, e.epoch, s.room, s.left)
			}
			filed := false
			for n := e.wheel.head[s.due&(wheelSize-1)]; n != 0 && !filed; n = e.wheel.ents[n-1].next {
				filed = e.wheel.ents[n-1].lane == k
			}
			if !filed {
				return fmt.Errorf("engine: group %d request %d missing from the wheel at epoch %d",
					e.groupID, s.id, s.due)
			}
		case s.is(slotHot):
			if !slices.Contains(e.loose, k) && !(e.live() && slices.ContainsFunc(e.rd.items,
				func(it batching.Item) bool { return it.Lane == k })) {
				return fmt.Errorf("engine: group %d hot request %d neither in the fast set, loose nor an item",
					e.groupID, s.id)
			}
		default:
			if _, ok := slices.BinarySearch(e.cold, k); !ok {
				return fmt.Errorf("engine: group %d cold request %d missing from the cold list",
					e.groupID, s.id)
			}
		}
	}
	return nil
}

// DemandTokens estimates the group's memory demand following the standard
// accounting (§2.2): the committed KV of in-processing requests (at least
// their full prompt, since prefill will allocate it) plus the prompts of
// queued requests.
func (e *Engine) DemandTokens() int { return e.demandTokens }

// committedTokens is one running request's demand contribution: at least
// the full prompt (prefill will allocate it), more once decode has grown
// the sequence past it. Nil-Seq requests (stalled mid-handoff, or mid-
// transplant) still owe their prompt.
func committedTokens(r *request.Request) int {
	c := r.PrefillTarget()
	if r.Seq != nil && r.Seq.Tokens() > c {
		c = r.Seq.Tokens()
	}
	return c
}

// AccountQueuedDemand adds a request's queued-demand contribution for
// callers that push straight onto the discipline, bypassing Enqueue
// (reconfiguration transplants the waiting queue that way to preserve
// queue-entry stamps).
func (e *Engine) AccountQueuedDemand(r *request.Request) {
	e.demandAdd(r.PrefillTarget())
}

// maxRunning bounds the admitted set: vLLM's max_num_seqs per engine,
// scaled by pipeline depth (each stage hosts a full scheduler's worth).
func (e *Engine) maxRunning() int {
	if e.budget.MaxSeqs <= 0 {
		return int(^uint(0) >> 1)
	}
	return e.budget.MaxSeqs * e.depth
}

// runAdmit moves waiting requests into the running set in the discipline's
// dispatch order while their prompts fit in free KV blocks. Admission is
// head-of-line: when the head does not fit, nothing behind it is admitted
// (every discipline defines fairness by defining the head). With prefix
// caching the fit check reserves net of the cached chain — the hit tokens
// need no new blocks, but the matched blocks also stop counting as
// reclaimable (CanFitWithPrefix) — and the matched prefix counts as
// already prefilled, so those chunks never reach the iteration former.
func (e *Engine) runAdmit() {
	for e.queue.Len() > 0 {
		if e.RunningLen() >= e.maxRunning() {
			return
		}
		r := e.queue.Peek()
		if r.Done() {
			// Finished elsewhere (shouldn't happen) — drop defensively.
			e.queue.Pop()
			e.demandAdd(-r.PrefillTarget())
			continue
		}
		// A pool without sharing ignores the prefix.
		if !e.pool.CanFitWithPrefix(r.Prefix, r.PrefillTarget()) {
			return
		}
		seq, hit, err := e.pool.NewSeqCached(r.Prefix)
		if err != nil {
			return
		}
		e.queue.Pop()
		e.demandAdd(-r.PrefillTarget())
		r.Seq = seq
		if hit > 0 {
			r.PrefilledTokens = hit
		}
		e.col.ObservePrefill(hit, r.PrefillTarget())
		if e.role == RolePrefill {
			// Wait measured from this queue entry, not original arrival:
			// a rerouted decode victim's prior lifetime is not queueing.
			waited, ok := r.EndWait(e.simu.Now())
			if !ok {
				waited = e.simu.Now().Sub(r.Arrival)
			}
			e.col.ObserveStageWait(metrics.StagePrefillQueue, waited.Seconds())
		}
		r.SetState(request.StateRunning)
		e.addRunning(r)
		if e.tr != nil {
			e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
				Cat: obs.CatQueue, Name: "admit", Group: e.groupID,
				Track: "queue", Req: r.ID,
				Args: [2]obs.Arg{{Key: "prefix_hit", Val: int64(hit)}}})
		}
		e.rt.Transition(e.simu.Now(), r.ID, "prefill", e.groupID)
	}
}

// runCollect fills the round's decode and prefill halves: a decode step in
// rd.items for every schedulable decode-ready running request, in lane
// order, and the lane index of every prefilling one in rd.prefills, in lane
// order, excluding stalled requests and keeping only the halves the role
// serves. Decodes that do not finish their request and need no
// block-level work, or cross into a counted block while no reservation of
// the round can reach the pressure callback, are reserved and advanced
// with no item and summed into rd.fast; fastLimit bounds them to the
// decodes the iteration budget admits. The lane's (Arrival, ID) order
// means no per-round sort.
//
// Most single-stage rounds are epoch rounds (epochCollect): the fast set
// is every hot slot with room ≥ 1 and left ≥ 2, and the round touches
// only its due slots (a wheel bucket and the loose list), which take
// their crossings on the slot or become items, and the cold slots. It
// falls back to the walk (walkCollect) when
// the walk could reserve differently: when fastLimit is 0 (a traced round,
// or pending decode-ready stamps), when the running set exceeds fastLimit
// (the budget could cut the fast set), or when the stop rule is live and
// the pool does not cover the round's block crossings (see epochCollect).
// Pipelined rounds always walk, and the walk records their decode sequence
// for the former. Entering the walk materializes every slot once; the next
// epoch round re-places them.
func (e *Engine) runCollect(rd *round) {
	fastLimit := e.fastLimit()
	// A decode's reservation needs at most one block, so when the pool can
	// hand every running request one, none reaches the pressure callback
	// and the stop rule has nothing to protect.
	stop := fastLimit > 0 && e.pool.AvailableBlocks() < e.RunningLen()
	switch {
	case e.depth != 1 || fastLimit == 0 || e.RunningLen() > fastLimit:
		e.leaveEpoch()
		// Only a decode whose token needs block-level work (room < 1)
		// reaches the pool, so the rule is also waived when the pool can
		// hand each of those one.
		e.walkCollect(rd, fastLimit, stop && !e.poolCovers(e.pool.AvailableBlocks()))
	case !e.epochCollect(rd, stop):
		e.leaveEpoch()
		e.walkCollect(rd, fastLimit, true)
	}
	if rd.fast.N > 0 {
		rd.live = rd.fast.N
		e.fastDecodes += rd.fast.N
		e.pending = true
	}
}

// poolCovers reports whether avail blocks cover every hot slot whose next
// token needs block-level work (room < 1). The slots must be materialized.
func (e *Engine) poolCovers(avail int) bool {
	for i := range e.lane {
		if s := &e.lane[i]; s.is(slotHot) && s.room < 1 {
			if avail--; avail < 0 {
				return false
			}
		}
	}
	return true
}

// walkCollect is collect as one filtered walk over the lane. With a
// fastLimit above 0 it also reserves and advances fast slots in place: a
// fast slot is hot, its token does not finish its request (left ≥ 2), and
// it needs no new block (room ≥ 1) or, with the stop rule waived, crosses
// into a counted one (see cross); only decodes among the first fastLimit
// in lane order are taken, so the budget keeps the same decodes as on the
// item path. Fast slots take the stamp the round will use (curStamp+1,
// which runForm makes current), and their ctx, left and gen count the
// in-flight token from here until finishRound begins. The stop rule: fast
// reservation stops at the first decode that must stay an item, because
// reserving younger slots ahead of it would let a pressure callback during
// its reservation find them stamped, and Victim would choose differently
// from the item path. The rule is waived when no decode reservation can
// reach the pressure callback (see runCollect), and only then may a
// crossing leave the item path: a crossing that reached the pressure
// callback as an item must stay one. In a pipelined round the walk also
// appends every decode to rd.dec, fast or item, with the context it is
// priced at.
func (e *Engine) walkCollect(rd *round, fastLimit int, stop bool) {
	e.walkRounds++
	items, prefills, dec := rd.items, rd.prefills, rd.dec
	seq := e.depth != 1
	var fast gpu.DecodeSum
	stamp := e.curStamp + 1
	decodes := len(items)
	for i := range e.lane {
		s := &e.lane[i]
		if s.is(slotHot) {
			if fast.N+len(items)-decodes < fastLimit && s.left >= 2 && (s.room >= 1 || !stop && e.cross(s)) {
				if seq {
					dec = append(dec, batching.FastDecode(int(s.ctx)))
				}
				fast.N++
				fast.Context += int(s.ctx) + 1
				advance(s, stamp)
				continue
			}
			if stop {
				fastLimit = 0
			}
			if seq {
				dec = append(dec, batching.ItemDecode(int(s.ctx)))
			}
			items = appendDecode(items, s.req, int32(i), int(s.ctx))
			continue
		}
		if e.prefilling(s) {
			prefills = append(prefills, int32(i))
		}
	}
	rd.items, rd.prefills, rd.fast, rd.dec = items, prefills, fast, dec
}

// cross takes the block crossing of a hot slot with no room left on the
// slot, when its Seq has a counted tail: it claims the next block from the
// pool, in the round and order the item's reservation would, and resets
// room to the block size, reporting true. The Seq books the block at the
// next write-back. Any other crossing stays an item, and reserveSlow
// appends it through the Seq. The caller has ruled out the pressure
// callback for every decode reservation of the round.
func (e *Engine) cross(s *slot) bool {
	if !s.is(slotCounted) {
		return false
	}
	e.pool.ClaimCounted(1)
	s.room = int32(e.pool.BlockTokens())
	return true
}

// advance reserves and advances a materialized hot slot's token on the
// fast path, under the round stamp stamp.
func advance(s *slot, stamp uint64) {
	s.room--
	s.kv++
	s.gen++
	s.ctx++
	s.left--
	s.stamp = stamp
	s.set(slotFast, true)
}

// epochCollect is collect on the epoch lane. It places the loose slots,
// takes the wheel bucket of the current epoch, re-placing the slots
// checked early, and visits the due slots in lane order: a due slot that
// crosses into a counted block takes the crossing on the slot (see cross)
// and joins the round's fast tokens, and every other one becomes an item;
// finishRound places the items again once their round has moved them. It
// visits the cold list for the prefills, dropping the slots gone or turned
// hot. Then the whole fast set advances by one token at once: rd.fast is
// (|F|, Σctx+|F|) plus the crossings, the epoch and Σctx move on, and the
// crossed slots are placed from the new epoch.
//
// With the stop rule live (stop), the round is an epoch round only when
// the pool covers its block crossings, as the walk's waiver demands (see
// poolCovers). Every hot slot with room < 1 is due, so the test counts
// the due set alone. An uncovered round reports false before it has
// emitted anything or claimed a block, and the caller leaves the epoch
// lane, which materializes the slots placed here, and walks. A covered
// round, or one with the rule waived, has no decode reservation that can
// reach the pressure callback, so its crossings may leave the item path.
func (e *Engine) epochCollect(rd *round, stop bool) bool {
	avail := e.pool.AvailableBlocks()
	if !e.epochOn {
		// Every slot is materialized: test the whole lane rather than
		// enter the epoch lane only to leave it.
		if stop && !e.poolCovers(avail) {
			return false
		}
		stop = false
		e.enterEpoch()
	}
	due := e.due[:0]
	for _, i := range e.loose {
		if s := &e.lane[i]; s.is(slotHot) && !s.is(slotRel) && !e.relate(i) {
			due = append(due, i)
		}
	}
	e.loose = e.loose[:0]
	for n := e.wheel.take(e.epoch); n != 0; {
		var i int32
		n, i = e.wheel.release(n)
		if i < 0 {
			continue
		}
		if s := &e.lane[i]; s.is(slotRel) && s.due == e.epoch {
			e.unrelate(s)
			if !e.relate(i) {
				due = append(due, i)
			}
		}
	}
	if len(due) > 1 {
		// A slot on loose twice (synced twice since its last placing) is
		// due once.
		slices.Sort(due)
		due = slices.Compact(due)
	}
	e.due = due
	if stop {
		for _, i := range due {
			if e.lane[i].room < 1 {
				if avail--; avail < 0 {
					return false
				}
			}
		}
	}
	items := rd.items
	var crossings gpu.DecodeSum
	stamp := e.curStamp + 1
	// The crossed slots' indices overwrite the due ones already visited.
	crossed := due[:0]
	for _, i := range due {
		s := &e.lane[i]
		if s.left >= 2 && s.room < 1 && e.cross(s) {
			crossings.N++
			crossings.Context += int(s.ctx) + 1
			advance(s, stamp)
			crossed = append(crossed, i)
			continue
		}
		items = appendDecode(items, s.req, i, int(s.ctx))
	}
	prefills, kept := rd.prefills, 0
	for _, i := range e.cold {
		s := &e.lane[i]
		if s.req == nil || s.is(slotHot) {
			continue
		}
		e.cold[kept] = i
		kept++
		if e.prefilling(s) {
			prefills = append(prefills, i)
		}
	}
	e.cold = e.cold[:kept]
	rd.items, rd.prefills = items, prefills
	rd.fast = gpu.DecodeSum{N: e.relN + crossings.N, Context: e.relCtx + e.relN + crossings.Context}
	e.relCtx += e.relN
	e.epoch++
	e.epochStamp = stamp
	for _, i := range crossed {
		if !e.relate(i) {
			e.loose = append(e.loose, i)
		}
	}
	return true
}

// prefilling reports whether a cold slot's request gets a prefill chunk
// this round: it is live, running and unstalled, and not finished.
func (e *Engine) prefilling(s *slot) bool {
	r := s.req
	// A live slot that is not stalled holds a running request (CheckLane
	// checks the stalled bit against the state), so a stalled slot is
	// passed by without loading its request.
	if r == nil || s.is(slotStalled) || r.Done() {
		return false
	}
	if !r.InPrefill() {
		// A decode-ready request is hot on a role that decodes and
		// must be stalled mid-handoff on a prefill group; reaching
		// here means a slot missed its sync or the policy's Handoff
		// accepted a request without stalling it.
		panic(fmt.Sprintf("engine: group %d holds cold unstalled decode-ready request %d",
			e.groupID, r.ID))
	}
	if !e.role.RunsPrefill() {
		panic(fmt.Sprintf("engine: decode group %d holds prefilling request %d",
			e.groupID, r.ID))
	}
	return true
}

// enterEpoch starts the epoch lane from materialized slots: every hot
// slot goes on loose and every cold one on cold.
func (e *Engine) enterEpoch() {
	e.epochOn = true
	for i := range e.lane {
		s := &e.lane[i]
		switch {
		case s.req == nil:
		case s.is(slotHot):
			e.loose = append(e.loose, int32(i))
		default:
			e.cold = append(e.cold, int32(i))
		}
	}
}

// leaveEpoch materializes every relative slot and empties the epoch
// lane's structures.
func (e *Engine) leaveEpoch() {
	if !e.epochOn {
		return
	}
	for i := range e.lane {
		e.unrelate(&e.lane[i])
	}
	e.epochOn = false
	e.wheel.reset()
	e.loose, e.cold = e.loose[:0], e.cold[:0]
}

// appendDecode appends one decode step, filling the new item in place:
// appending a composite literal builds it on the stack first, and
// reloading those narrow stores as one wide copy stalls store forwarding
// on every decode token.
func appendDecode(items []batching.Item, r *request.Request, lane int32, ctx int) []batching.Item {
	items = append(items, batching.Item{})
	it := &items[len(items)-1]
	it.Req, it.Lane, it.Chunk, it.Prefix = r, lane, 1, ctx
	return items
}

// runForm completes the iteration batch the collect step started in
// rd.items, in batching.FormIteration's order and budget arithmetic (through
// batching.Packer): it counts the round's fast decodes (which collect kept
// within the budget) ahead of the item decodes, keeps the decode steps the
// budget admits, then packs prefill chunks FCFS. Each pipeline microbatch
// carries a full token budget (vLLM gives every in-flight virtual engine
// max_num_batched_tokens), so the iteration budget scales with pipeline
// depth. The fast decodes all precede the first decode past the budget in
// lane order, so the admitted decodes are a prefix of rd.dec. The round's
// stamp advances here.
func (e *Engine) runForm(rd *round) {
	pk := batching.NewPacker(e.iterBudget())
	pk.Decodes(rd.fast.N)
	decodes := pk.Decodes(len(rd.items))
	items := rd.items[:decodes]
	rd.dec = rd.dec[:min(len(rd.dec), rd.fast.N+decodes)]
	for _, i := range rd.prefills {
		r := e.lane[i].req
		chunk, ok := pk.Prefill(r.RemainingPrefill())
		if !ok {
			break
		}
		if chunk > 0 {
			items = append(items, batching.Item{Req: r, IsPrefill: true, Lane: i,
				Chunk: chunk, Prefix: r.PrefilledTokens})
		}
	}
	rd.items = items
	e.curStamp++
	rd.hadWork = len(items) > 0 || rd.fast.N > 0
}

// iterBudget is one iteration's budget: Budget scaled by pipeline depth.
func (e *Engine) iterBudget() batching.Budget {
	budget := e.budget
	budget.MaxTokens *= e.depth
	if budget.MaxSeqs > 0 {
		budget.MaxSeqs *= e.depth
	}
	return budget
}

// fastLimit is how many decodes collect may take on the fast path: none
// in traced rounds (the tracer sees every token) or rounds with pending
// decode-ready stamps (the first decode reports its wait); otherwise every
// decode the iteration budget admits, single-stage or pipelined (formers
// cut the decode sequence by count and sum the fast decodes).
func (e *Engine) fastLimit() int {
	if e.tr != nil || e.nAwaitDecode > 0 {
		return 0
	}
	b := e.iterBudget()
	if b.MaxSeqs > 0 {
		return min(b.MaxTokens, b.MaxSeqs)
	}
	return b.MaxTokens
}

// runReserve allocates blocks for each item's new tokens, consulting the
// policy under pressure. Items that still cannot fit are dropped from this
// round (their requests simply make no progress this iteration). The
// round's demand growth is applied as one delta, before any pressure
// callback (so the policy reads exact demand) and at the end; it starts at
// the fast decodes collect already reserved, which precede every item in
// reservation order. A pipelined round's dropped item decodes leave its
// decode sequence too.
func (e *Engine) runReserve(rd *round) {
	// Filter in place, writing an item back only after a drop shifted the
	// kept ones: in the common no-pressure round every item survives and
	// the slice is never rewritten (no redundant copies, no write
	// barriers).
	kept, growth := 0, rd.fast.N
	// The first itemDecs items are rd.dec's item decodes (none in a
	// single-stage round).
	itemDecs := len(rd.dec) - rd.fast.N
	for i := range rd.items {
		it := &rd.items[i]
		if it.Lane < 0 {
			if i < itemDecs {
				rd.gone = append(rd.gone, int32(i))
			}
			continue
		}
		if s := &e.lane[it.Lane]; s.is(slotHot) && !it.IsPrefill && it.Chunk <= int(s.room) {
			// Steady decode: the tail block has room, so the token is only
			// counted on the slot. A hot slot's Seq already holds its
			// whole prompt, so every token grows the committed KV.
			s.room -= int32(it.Chunk)
			s.kv += int32(it.Chunk)
			e.pending = true
			growth += it.Chunk
		} else if !e.reserveSlow(it, &growth) {
			if s := &e.lane[it.Lane]; e.epochOn && s.is(slotHot) && !s.is(slotRel) {
				// A decode that got no KV this round is due again next
				// round.
				e.loose = append(e.loose, it.Lane)
			}
			if i < itemDecs {
				rd.gone = append(rd.gone, int32(i))
			}
			continue
		}
		s := &e.lane[it.Lane]
		s.stamp = e.curStamp
		s.set(slotFast, false)
		if kept != i {
			rd.items[kept] = *it
		}
		kept++
	}
	rd.items = rd.items[:kept]
	if len(rd.gone) > 0 {
		rd.dropDecodes()
	}
	if growth > 0 {
		e.demandAdd(growth)
	}
	e.compactIfSparse()
}

// dropDecodes deletes the item decodes rd.gone names from rd.dec and
// empties rd.gone.
func (rd *round) dropDecodes() {
	kept, k, g := 0, int32(0), 0
	for _, d := range rd.dec {
		if d.IsItem() {
			drop := g < len(rd.gone) && rd.gone[g] == k
			k++
			if drop {
				g++
				continue
			}
		}
		rd.dec[kept] = d
		kept++
	}
	rd.dec, rd.gone = rd.dec[:kept], rd.gone[:0]
}

// reserveSlow claims KV for an item the lane cannot count on its own — a
// prefill chunk, or a decode token that needs a new block and did not
// take its crossing on the slot — and reports whether it fits this round,
// adding any committed-KV growth to *growth. It writes the slot back and
// goes through Seq.Append and the pressure loop, then refreshes a hot
// slot's room and counted-tail bit from the Seq.
func (e *Engine) reserveSlow(it *batching.Item, growth *int) bool {
	for attempt := 0; attempt < 64; attempt++ {
		s := &e.lane[it.Lane]
		r := s.req
		if r == nil {
			// A previous pressure call preempted this request or rerouted
			// it to another group (a disaggregated decode victim).
			return false
		}
		if r.Seq == nil || r.State() != request.StateRunning || r.GroupID != e.groupID {
			// A previous pressure call stalled this request.
			return false
		}
		e.writeBack(s)
		if err := r.Seq.Append(it.Chunk); err == nil {
			// A decode append past the prompt raises the request's
			// committed-KV contribution (prefill stays within the prompt
			// already accounted at admission).
			if after, pt := r.Seq.Tokens(), r.PrefillTarget(); after > pt {
				*growth += after - max(after-it.Chunk, pt)
			}
			if s.is(slotHot) {
				e.syncTail(s)
			}
			return true
		}
		need := e.pool.BlocksForTokens(r.Seq.Tokens()+it.Chunk) - r.Seq.Blocks()
		if *growth > 0 {
			e.demandAdd(*growth)
			*growth = 0
		}
		if !e.cb.HandlePressure(need) {
			return false
		}
	}
	return false
}

// runLaunch starts the reserved batch, or schedules a pressure retry when
// nothing survived reservation. A single-stage round runs on the group's
// timer as one event; a pipelined one is formed into microbatches for the
// pipeline.
func (e *Engine) runLaunch(rd *round) {
	if len(rd.items) == 0 && rd.fast.N == 0 {
		if rd.hadWork {
			// Memory pressure blocked every item and the policy
			// could not free anything synchronously; retry after
			// Options.RetryDelay (asynchronous relief — swap-out
			// completion, a migration, a drop — will land in the
			// meantime).
			e.simu.After(e.retryDelay, "retry-round", e.wakeFn)
		}
		e.fireDrainedIfIdle()
		return
	}
	e.executing = true
	e.roundsRun++
	if e.tr != nil {
		now := e.simu.Now()
		e.roundStart = now
		// Counter tracks sampled once per launched round.
		e.counter(now, "kv_blocks_used", float64(e.pool.UsedBlocks()))
		e.counter(now, "queue_depth", float64(e.queue.Len()))
		e.counter(now, "batch_size", float64(len(rd.items)))
		e.counter(now, "running", float64(e.RunningLen()))
	}
	if e.depth == 1 {
		e.work = batching.AppendChunkWork(e.work[:0], rd.items)
		e.simu.After(e.timer.Time(e.work, rd.fast), "round", e.finishFn)
		return
	}
	e.pipe.RunRound(e.cb.Form(&e.split, rd.dec, rd.items, e.depth), e.finishFn)
}

func (e *Engine) counter(now sim.Time, name string, v float64) {
	e.tr.Emit(obs.Event{Phase: obs.PhaseCounter, Time: now, Cat: obs.CatEngine,
		Name: name, Group: e.groupID, Req: obs.ReqNone, Value: v})
}

func (e *Engine) startRound() {
	if e.executing || e.scheduling || e.closed || e.draining {
		return
	}
	e.compactIfSparse()
	e.scheduling = true
	rd := &e.rd
	rd.prefills = rd.prefills[:0]
	rd.items = rd.items[:0]
	rd.dec = rd.dec[:0]
	rd.hadWork = false
	if e.hook != nil {
		e.hook("start")
	}
	e.cb.BeforeAdmit()
	e.stepDone("policy")
	if e.role != RoleDecode {
		// Decode groups' requests arrive by handoff adoption.
		e.runAdmit()
		e.stepDone("admit")
	}
	e.runCollect(rd)
	e.stepDone("collect")
	e.runForm(rd)
	e.stepDone("form")
	e.runReserve(rd)
	e.stepDone("reserve")
	e.runLaunch(rd)
	e.stepDone("launch")
	e.scheduling = false
}

// stepDone ends one step of the round; it inlines, so a round with no
// tracer and no hook pays one branch per step.
func (e *Engine) stepDone(name string) {
	if e.tr != nil || e.hook != nil {
		e.watchStep(name)
	}
}

// watchStep emits a traced round's instant on the step's own thread row, so
// Perfetto shows each round's shape, and runs the hook.
func (e *Engine) watchStep(name string) {
	if e.tr != nil {
		e.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: e.simu.Now(),
			Cat: obs.CatEngine, Name: name, Group: e.groupID,
			Track: "stage/" + name, Req: obs.ReqNone,
			Args: [2]obs.Arg{
				{Key: "queued", Val: int64(e.queue.Len())},
				{Key: "running", Val: int64(e.RunningLen())},
			}})
	}
	if e.hook != nil {
		e.hook(name)
	}
}

// finishRound advances the round's tokens. The fast tokens need no visit:
// their slots already count them, so clearing the in-flight state first
// finishes them all. Finishing them ahead of items that precede them in
// lane order changes nothing: an item's advance touches only its own slot
// and request, and Callbacks.Finished leaves other requests alone.
func (e *Engine) finishRound(items []batching.Item) {
	now := e.simu.Now()
	tokens := e.rd.live
	if tokens > 0 {
		// A mid-round write-back left each fast token on its slot.
		e.pending = true
	}
	e.rd.fast, e.rd.live = gpu.DecodeSum{}, 0
	for k := range items {
		// Read through the slice, not a copy: finishing a request shifts
		// the lane indices of the items after it.
		it := &items[k]
		if it.Lane < 0 {
			continue
		}
		s := &e.lane[it.Lane]
		if s.req == nil {
			// Finished, preempted or rerouted earlier in the round.
			continue
		}
		if s.is(slotHot) && !it.IsPrefill {
			// Steady decode: the token is counted on the slot alone.
			if e.nAwaitDecode > 0 {
				// The first decode after a handoff ends the decode-queue wait.
				if waited, ok := s.req.EndWait(now); ok {
					e.col.ObserveStageWait(metrics.StageDecodeQueue, waited.Seconds())
					e.nAwaitDecode--
				}
			}
			if e.rt != nil {
				e.rt.Transition(now, s.id, "decode", e.groupID)
			}
			s.gen++
			s.ctx++
			s.left--
			e.pending = true
			tokens++
			if s.left == 0 {
				e.finishRequest(int(it.Lane), now)
			} else if e.epochOn && !s.is(slotRel) && !e.relate(it.Lane) {
				e.loose = append(e.loose, it.Lane)
			}
			continue
		}
		// A decode item's slot stays hot while its request runs, so a
		// decode item here was stalled or moved mid-round, and every
		// item past this check is a prefill chunk.
		r := it.Req
		if r.Done() || r.State() != request.StateRunning || r.GroupID != e.groupID {
			// Stalled mid-round by a policy action.
			continue
		}
		before := r.Generated
		r.AdvancePrefill(it.Chunk, now)
		if r.Generated > before {
			tokens++
		}
		if e.role != RolePrefill && !r.InPrefill() && !r.Done() {
			e.rt.Transition(now, r.ID, "decode", e.groupID)
			e.syncSlot(int(it.Lane))
		}
		if e.role == RolePrefill && !r.InPrefill() && !r.Done() {
			// The prefill is complete but decode belongs to another
			// pool: the policy stalls the request and ships its KV.
			if e.cb.Handoff == nil || !e.cb.Handoff(r) {
				panic(fmt.Sprintf("engine: prefill group %d has no handoff for request %d",
					e.groupID, r.ID))
			}
		}
		if r.Done() {
			e.finishRequest(int(it.Lane), now)
		}
	}
	e.compactIfSparse()
	if tokens > 0 {
		e.col.EmitTokens(now, tokens)
	}
	if e.tr != nil {
		e.tr.Emit(obs.Event{Phase: obs.PhaseComplete, Time: e.roundStart,
			Dur: now.Sub(e.roundStart), Cat: obs.CatEngine, Name: "round",
			Group: e.groupID, Track: "engine", Req: obs.ReqNone,
			Args: [2]obs.Arg{
				{Key: "items", Val: int64(len(items))},
				{Key: "tokens", Val: int64(tokens)},
			}})
	}
	e.executing = false
	if e.closed {
		return
	}
	if e.draining {
		e.fireDrainedIfIdle()
		return
	}
	e.startRound()
}

// finishRequest retires the request in lane slot i: the slot is written
// back, so Callbacks.Finished sees the request complete.
func (e *Engine) finishRequest(i int, now sim.Time) {
	r := e.lane[i].req
	e.removeAt(i)
	e.forgetDecodeWait(r)
	if r.Seq != nil {
		r.Seq.Free()
		r.Seq = nil
	}
	r.SetState(request.StateFinished)
	e.rt.End(now, r.ID)
	e.col.Finish(metrics.RequestRecord{
		ID:           r.ID,
		Arrival:      r.Arrival,
		FirstToken:   r.FirstTokenAt,
		Completed:    now,
		OutputTokens: r.OutputLen,
		Client:       r.Client,
		Class:        r.Class,
	})
	e.cb.Finished(r)
}

// Drain freezes the engine after the in-flight round and calls then once
// idle. Used by reconfiguration (cluster.Regroup), which drains a group
// only once.
func (e *Engine) Drain(then func()) {
	e.draining = true
	e.onDrained = then
	e.fireDrainedIfIdle()
}

func (e *Engine) fireDrainedIfIdle() {
	if e.draining && !e.executing && e.onDrained != nil {
		fn := e.onDrained
		e.onDrained = nil
		fn()
	}
}

// ExtractRequests empties the engine's request sets for transplantation
// into a successor group, marking the engine closed. Stalled requests are
// returned within running, still in their stall state, so the engine that
// adopts them keeps them stalled.
func (e *Engine) ExtractRequests() (running, waiting []*request.Request) {
	if e.executing {
		panic(fmt.Sprintf("engine: extracting from executing group %d", e.groupID))
	}
	running = e.Running()
	e.leaveEpoch()
	e.demandAdd(-e.demandTokens)
	for e.queue.Len() > 0 {
		waiting = append(waiting, e.queue.Pop())
	}
	e.lane = nil
	e.dead, e.skipTail, e.nStalled, e.nAwaitDecode = 0, 0, 0, 0
	e.closed = true
	return running, waiting
}
