package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kunserve/internal/batching"
	"kunserve/internal/core/lookahead"
	"kunserve/internal/costmodel"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/network"
	"kunserve/internal/obs"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
)

// churn drives one engine through random membership changes and keeps a
// plain-slice reference model of its running set: ref holds the running
// requests in admission order, queue the wait queue in FCFS order, and
// stalled the subset the test stalled.
//
// The model also replays reservation order, which Victim depends on.
// After admission, the engine's round hook records the round's batch in
// reservation order (decodes in lane order, then the prefill chunks the
// budget packs); a request counts as reserved once the reservation walk
// has passed it. Outside a pressure callback the walk is complete. Inside
// one, the walk stands at the first batch member that neither holds its
// reservation in its Seq nor was dropped — the model reads only requests
// and Seqs, never the engine's slots.
type churn struct {
	t    *testing.T
	rng  *rand.Rand
	simu *sim.Simulation
	pool *kvcache.Pool
	col  *metrics.Collector
	e    *Engine

	reqs    map[int]*request.Request
	ref     []*request.Request
	queue   []*request.Request
	stalled map[*request.Request]bool
	// heldAt maps each request stalled while holding a reservation to the
	// round (RoundsRun) it was reserved in. Resumed while that round still
	// executes, it finishes its token after all; once the round has
	// finished without it, its Seq runs ahead of its context for good, so
	// the test only ever removes it.
	heldAt map[*request.Request]int
	// stallGen is each stalled request's Generated when it stalled.
	stallGen map[*request.Request]int

	// batch is the latest round's batch in reservation order, and dropped
	// its members whose reservation failed under pressure.
	batch   []*request.Request
	dropped map[*request.Request]bool

	// adopted counts tokens adopted requests arrived with.
	adopted   int
	nextID    int
	preempts  int
	finished  int
	pressures int
	// dropsInFlight counts stalls and removals that took a fast token out
	// of its round, and retakes unstalls that put one back (coverage only;
	// the model never reads them).
	dropsInFlight, retakes int
	// cut counts rounds whose budget cut the decodes short, formed
	// pipelined rounds checked by checkForm, and unreserved the item
	// decodes reservation took out of a pipelined round's decode sequence;
	// unbooked counts checks that found blocks slots had claimed for
	// crossings and their Seqs had not booked yet (coverage only).
	cut, formed, unreserved, unbooked int
}

// former forms a two-stage churn engine's microbatches.
type former func(s *batching.Split, dec []batching.Decode, items []batching.Item, stages int) []batching.Microbatch

// discard is a tracer that drops every event: tracing selects the engine's
// item path.
type discard struct{}

func (discard) Emit(obs.Event) {}

func newChurn(t *testing.T, seed int64, blocks, budget int, traced bool) *churn {
	return newPipelinedChurn(t, seed, blocks, budget, traced, nil)
}

// newPipelinedChurn is newChurn on a two-stage pipeline whose microbatches
// form formed, or on one stage when form is nil. Every pipelined round's
// microbatches are checked against form over the round expanded to one
// item per decode step (checkForm).
func newPipelinedChurn(t *testing.T, seed int64, blocks, budget int, traced bool, form former) *churn {
	c := &churn{
		t:        t,
		rng:      rand.New(rand.NewSource(seed)),
		simu:     sim.New(seed),
		pool:     kvcache.NewPool(blocks, 16),
		col:      metrics.NewCollector(sim.Second, nil),
		reqs:     make(map[int]*request.Request),
		stalled:  make(map[*request.Request]bool),
		heldAt:   make(map[*request.Request]int),
		stallGen: make(map[*request.Request]int),
		dropped:  make(map[*request.Request]bool),
	}
	var tr obs.Tracer
	if traced {
		tr = discard{}
	}
	cfg := model.Qwen25_14B()
	depth, timer := 1, gpu.NewTimer(gpu.A800(), cfg, 1)
	var pipe *pipeline.Engine
	var formFn former
	if form != nil {
		half := cfg.Partial(cfg.Layers / 2)
		var stages []*pipeline.Stage
		for i := 0; i < 2; i++ {
			stages = append(stages, &pipeline.Stage{
				Timer:  gpu.NewTimer(gpu.A800(), half, 1),
				Egress: network.NewLink(c.simu, "egress", network.RDMA200, network.DefaultLatency)})
		}
		formFn = func(s *batching.Split, dec []batching.Decode, items []batching.Item, n int) []batching.Microbatch {
			got := form(s, dec, items, n)
			c.checkForm(form, stages[0].Timer, dec, items, n, got)
			return got
		}
		depth, timer, pipe = 2, nil, pipeline.New(c.simu, stages, 1)
	}
	c.e = New(Options{
		Sim:        c.simu,
		Pool:       c.pool,
		Timer:      timer,
		Pipeline:   pipe,
		Queue:      sched.NewFCFS(),
		Collector:  c.col,
		Budget:     batching.Budget{MaxTokens: budget},
		Depth:      depth,
		RetryDelay: sim.Millisecond,
		Tracer:     tr,
		Callbacks: Callbacks{
			BeforeAdmit:    func() {},
			HandlePressure: c.pressure,
			Form:           formFn,
			Finished: func(r *request.Request) {
				c.leave(r)
				c.finished++
			},
		},
	})
	decodes := 0
	c.e.hook = func(step string) {
		switch step {
		case "admit":
			c.observe()
		case "form":
			decodes = len(c.e.rd.dec)
		case "reserve":
			c.unreserved += decodes - len(c.e.rd.dec)
		}
	}
	return c
}

// checkForm checks a pipelined round's decode sequence against the round
// and its microbatches against the reference: form over the round
// expanded to one item per decode step, with no decode sequence, in which
// the expansion's fast steps are the items with no request. The sequence
// must hold one step per decode the round kept, its item steps matching
// the leading decode items' contexts one for one and its fast steps
// summing to the round's fast aggregate. Each microbatch must hold the
// reference's items less its fast steps, a Dec summing exactly those, the
// same duration on a stage's timer and the same activation tokens.
func (c *churn) checkForm(form former, timer *gpu.Timer, dec []batching.Decode, items []batching.Item, stages int, got []batching.Microbatch) {
	c.t.Helper()
	c.formed++
	var expanded []batching.Item
	var fast gpu.DecodeSum
	k := 0
	for _, d := range dec {
		if d.IsItem() {
			if k >= len(items) || items[k].IsPrefill || items[k].Prefix != d.Ctx() {
				c.t.Fatalf("round %d: decode step %d (context %d) has no matching decode item", c.e.RoundsRun(), len(expanded), d.Ctx())
			}
			expanded = append(expanded, items[k])
			k++
			continue
		}
		fast.N++
		fast.Context += d.Ctx() + 1
		expanded = append(expanded, batching.Item{Lane: -1, Chunk: 1, Prefix: d.Ctx()})
	}
	if fast != c.e.rd.fast {
		c.t.Fatalf("round %d: decode sequence sums fast decodes to %+v, round %+v", c.e.RoundsRun(), fast, c.e.rd.fast)
	}
	for _, it := range items[k:] {
		if !it.IsPrefill {
			c.t.Fatalf("round %d: decode item for request %d missing from the decode sequence", c.e.RoundsRun(), it.Req.ID)
		}
	}
	expanded = append(expanded, items[k:]...)
	want := form(&batching.Split{}, nil, expanded, stages)
	if len(got) != len(want) {
		c.t.Fatalf("round %d: %d microbatches, reference %d", c.e.RoundsRun(), len(got), len(want))
	}
	for m, ref := range want {
		var its []batching.Item
		var dec gpu.DecodeSum
		for _, it := range ref.Items {
			if it.Req == nil {
				dec.N++
				dec.Context += it.Prefix + 1
				continue
			}
			its = append(its, it)
		}
		mb := got[m]
		if !slices.Equal(mb.Items, its) || mb.Dec != dec || ref.Dec.N != 0 {
			c.t.Fatalf("round %d: microbatch %d holds %d items and %+v, reference %d items and %+v",
				c.e.RoundsRun(), m, len(mb.Items), mb.Dec, len(its), dec)
		}
		if a, b := timer.Time(batching.ToChunkWork(mb.Items), mb.Dec), timer.Time(batching.ToChunkWork(ref.Items), gpu.DecodeSum{}); a != b {
			c.t.Fatalf("round %d: microbatch %d times %v, reference %v", c.e.RoundsRun(), m, a, b)
		}
		if a, b := mb.Tokens(), ref.Tokens(); a != b {
			c.t.Fatalf("round %d: microbatch %d forwards %d tokens, reference %d", c.e.RoundsRun(), m, a, b)
		}
	}
}

// sync moves the requests admitted since the last call from the model's
// queue to its running set: admission pops the FCFS head, so they are the
// queue's first len(queue) − QueueLen entries, in admission order.
func (c *churn) sync() {
	n := len(c.queue) - c.e.QueueLen()
	c.ref = append(c.ref, c.queue[:n]...)
	c.queue = c.queue[n:]
}

// observe records the round's batch in reservation order, as collect and
// form will build it: every running, unstalled decode in lane order
// within the budget, then the prefill chunks packed FCFS in lane order.
func (c *churn) observe() {
	c.sync()
	var decodes, prefills []*request.Request
	for _, r := range laneOrder(c.ref) {
		switch {
		case c.stalled[r] || r.Done():
		case r.InPrefill():
			prefills = append(prefills, r)
		default:
			decodes = append(decodes, r)
		}
	}
	pk := batching.NewPacker(c.e.iterBudget())
	kept := pk.Decodes(len(decodes))
	if kept < len(decodes) {
		c.cut++
	}
	c.batch = append(c.batch[:0], decodes[:kept]...)
	for _, r := range prefills {
		chunk, ok := pk.Prefill(r.RemainingPrefill())
		if !ok {
			break
		}
		if chunk > 0 {
			c.batch = append(c.batch, r)
		}
	}
	clear(c.dropped)
}

// laneOrder returns a copy of rs in the engine's lane order: by arrival,
// then ID.
func laneOrder(rs []*request.Request) []*request.Request {
	lane := slices.Clone(rs)
	slices.SortFunc(lane, func(a, b *request.Request) int {
		if a.Arrival != b.Arrival {
			return cmp.Compare(a.Arrival, b.Arrival)
		}
		return a.ID - b.ID
	})
	return lane
}

// holdsReservation reports whether r's Seq holds a token its request has
// not advanced past: a reservation its round has not finished. Callers
// write the lane back first.
func holdsReservation(r *request.Request) bool {
	if r.Seq == nil {
		return false
	}
	if r.InPrefill() {
		return r.Seq.Tokens() > r.PrefilledTokens
	}
	return r.Seq.Tokens() > r.ContextLen()
}

// walk returns the index in batch of the member the reservation walk is
// reserving during a pressure callback: the first running, unstalled one
// that neither holds its reservation nor was dropped. The engine must
// have written its lane back.
func (c *churn) walk() int {
	running := make(map[*request.Request]bool, len(c.ref))
	for _, r := range c.ref {
		running[r] = true
	}
	for k, r := range c.batch {
		if running[r] && !c.stalled[r] && !c.dropped[r] && !holdsReservation(r) {
			return k
		}
	}
	return len(c.batch)
}

// pressure is the engine's pressure callback: it checks Victim against the
// model with the walk standing at the member being reserved, and that no
// member past it holds a reservation yet, then preempts the victim.
func (c *churn) pressure(int) bool {
	c.pressures++
	c.sync()
	// Victim first, on the lane as the round left it; then write the lane
	// back so Seqs show the reservations.
	v := c.e.Victim()
	c.e.Running()
	pos := c.walk()
	for _, r := range c.batch[min(pos+1, len(c.batch)):] {
		if slices.Contains(c.ref, r) && !c.stalled[r] && holdsReservation(r) {
			c.t.Fatalf("pressure while reserving batch member %d: request %d, later in reservation order, is already reserved",
				pos, r.ID)
		}
	}
	want := c.refVictim(pos)
	if v != want {
		c.t.Fatalf("pressure while reserving batch member %d: Victim %v, model %v", pos, id(v), id(want))
	}
	if v == nil {
		if pos < len(c.batch) {
			c.dropped[c.batch[pos]] = true
		}
		return false
	}
	c.preempt(v)
	return true
}

// fresh builds a request with arrivals drawn from a few instants, so equal
// arrivals (Victim's admission-order tie-break) are common.
func (c *churn) fresh() *request.Request {
	r := request.New(c.nextID, sim.Time(0).Add(sim.Duration(c.rng.Intn(4))*sim.Second),
		1+c.rng.Intn(40), 2+c.rng.Intn(20))
	c.reqs[r.ID] = r
	c.nextID++
	return r
}

func (c *churn) leave(r *request.Request) {
	c.sync()
	i := slices.Index(c.ref, r)
	if i < 0 {
		c.t.Fatalf("request %d left the engine but the model does not hold it", r.ID)
	}
	c.ref = slices.Delete(c.ref, i, i+1)
	delete(c.stalled, r)
	delete(c.heldAt, r)
	delete(c.stallGen, r)
}

func (c *churn) preempt(r *request.Request) {
	c.leave(r)
	c.preempts++
	c.e.PreemptRecompute(r)
	c.queue = slices.Insert(c.queue, 0, r)
}

// adopt adds a fresh request straight to the running set, as a handoff or
// migration does: half of them arrive prefilled and decode-ready (hot),
// half with an empty Seq still to prefill, and a quarter of each arrive
// swapped, as a transplant carries a stalled request.
func (c *churn) adopt() {
	r := c.fresh()
	prompt := 0
	if c.rng.Intn(2) == 0 {
		prompt = r.InputLen
	}
	seq, err := c.pool.NewSeq(prompt)
	if err != nil {
		return
	}
	r.Seq = seq
	if prompt > 0 {
		r.AdvancePrefill(prompt, c.simu.Now())
		c.adopted += r.Generated
	}
	r.SetState(request.StateRunning)
	stalled := c.rng.Intn(4) == 0
	if stalled {
		r.SetState(request.StateSwapped)
	}
	c.sync()
	c.e.AdoptRunning(r)
	c.ref = append(c.ref, r)
	if stalled {
		c.stalled[r] = true
		c.stallGen[r] = r.Generated
	}
}

// pick returns a random running request the test has (or has not)
// stalled, reserved in the current round or not. It never resumes a
// stalled request whose Seq runs ahead of its context.
func (c *churn) pick(stalled bool) *request.Request {
	var in []*request.Request
	for _, r := range c.ref {
		if c.stalled[r] != stalled {
			continue
		}
		if at, held := c.heldAt[r]; held && !(c.e.Executing() && c.e.RoundsRun() == at) {
			continue
		}
		in = append(in, r)
	}
	if len(in) == 0 {
		return nil
	}
	return in[c.rng.Intn(len(in))]
}

// step applies one random operation.
func (c *churn) step() string {
	c.sync()
	busy := len(c.ref)+len(c.queue) >= 48
	switch op := c.rng.Intn(22); {
	case op < 3 && !busy:
		r := c.fresh()
		c.queue = append(c.queue, r)
		c.e.Enqueue(r)
		return "enqueue"
	case op < 6:
		if v := c.e.Victim(); v != nil {
			c.preempt(v)
		}
		return "preempt"
	case op < 8:
		if r := c.pick(false); r != nil {
			live := c.e.rd.live
			c.e.Stall(r, request.StateSwapped)
			if c.e.rd.live < live {
				c.dropsInFlight++
			}
			c.stalled[r] = true
			if holdsReservation(r) {
				c.heldAt[r] = c.e.RoundsRun()
			}
			c.stallGen[r] = r.Generated
		}
		return fmt.Sprintf("stall (executing %v)", c.e.Executing())
	case op < 10:
		if r := c.pick(true); r != nil {
			delete(c.stalled, r)
			delete(c.stallGen, r)
			delete(c.heldAt, r)
			live := c.e.rd.live
			c.e.Unstall(r)
			if c.e.rd.live > live {
				c.retakes++
			}
		}
		return fmt.Sprintf("unstall (executing %v)", c.e.Executing())
	case op < 12 && !busy:
		c.adopt()
		return fmt.Sprintf("adopt (executing %v)", c.e.Executing())
	case op < 13:
		// Migrate a running request away, stalled or not, reserved or not.
		if len(c.ref) > 0 {
			r := c.ref[c.rng.Intn(len(c.ref))]
			live := c.e.rd.live
			c.e.RemoveRequest(r)
			if c.e.rd.live < live {
				c.dropsInFlight++
			}
			c.leave(r)
			r.Seq.Free()
			r.Seq = nil
		}
		return fmt.Sprintf("remove (executing %v)", c.e.Executing())
	case op < 14:
		c.e.Wake()
		return "wake"
	case op < 15:
		// Let the round in flight and its successors run out, so the
		// operations that follow (until one wakes the engine) take the
		// engine's between-rounds paths.
		for n := 0; n < 10000 && c.e.live() && c.simu.Step(); n++ {
		}
		return "settle"
	default:
		for n := 1 + c.rng.Intn(3); n > 0 && c.simu.Step(); n-- {
		}
		return "step"
	}
}

// collect gathers what a visitor sees.
func collect(each func(func(*request.Request))) []*request.Request {
	var out []*request.Request
	each(func(r *request.Request) { out = append(out, r) })
	return out
}

// id is r's ID, or -1 for nil.
func id(r *request.Request) int {
	if r == nil {
		return -1
	}
	return r.ID
}

func ids(rs []*request.Request) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// refVictim is Victim by definition: the youngest running request that is
// neither stalled nor reserved in the latest round, the earliest admitted
// among equal arrivals. The round's batch members before index walked are
// reserved, bar those whose reservation was dropped.
func (c *churn) refVictim(walked int) *request.Request {
	reserved := make(map[*request.Request]bool)
	for _, r := range c.batch[:walked] {
		reserved[r] = !c.dropped[r]
	}
	var v *request.Request
	for _, r := range c.ref {
		if c.stalled[r] || reserved[r] {
			continue
		}
		if v == nil || r.Arrival > v.Arrival {
			v = r
		}
	}
	return v
}

// check compares the engine with the model after an operation.
func (c *churn) check(op string) {
	c.t.Helper()
	fail := func(format string, args ...any) {
		c.t.Helper()
		c.t.Fatalf("after %s: %s", op, fmt.Sprintf(format, args...))
	}
	c.sync()
	// The pool has used exactly the blocks the Seqs hold, plus, until the
	// write-back books them, the blocks slots claimed for crossings.
	if err := c.pool.CheckInvariants(); err != nil {
		fail("%v", err)
	}
	switch unbooked := c.pool.UsedBlocks() - c.heldBlocks(); {
	case unbooked < 0:
		fail("pool uses %d blocks, Seqs hold %d", c.pool.UsedBlocks(), c.heldBlocks())
	case unbooked > 0:
		c.unbooked++
	}
	// Victim first, before any write-back materializes the lane.
	if wv, gv := c.refVictim(len(c.batch)), c.e.Victim(); wv != gv {
		fail("Victim %v, model %v", id(gv), id(wv))
	}
	want := ids(c.ref)
	if got := ids(c.e.Running()); !slices.Equal(got, want) {
		fail("Running %v, model %v", got, want)
	}
	var wantStalled []int
	for _, r := range laneOrder(c.ref) {
		if c.stalled[r] {
			wantStalled = append(wantStalled, r.ID)
		}
	}
	if got := ids(collect(c.e.EachStalled)); !slices.Equal(got, wantStalled) {
		fail("EachStalled %v, model %v", got, wantStalled)
	}
	if n := c.e.RunningLen(); n != len(c.ref) {
		fail("RunningLen %d, model %d", n, len(c.ref))
	}
	if got, want := ids(collect(c.e.Queue().Each)), ids(c.queue); !slices.Equal(got, want) {
		fail("queue %v, model %v", got, want)
	}
	if _, err := c.e.CheckLane(); err != nil {
		fail("%v", err)
	}
	if err := c.pool.CheckInvariants(); err != nil {
		fail("after write-back: %v", err)
	}
	if used, held := c.pool.UsedBlocks(), c.heldBlocks(); used != held {
		fail("after write-back the pool uses %d blocks, Seqs hold %d", used, held)
	}
	if c.e.live() {
		for _, it := range c.e.rd.items {
			if it.Lane < 0 {
				continue
			}
			if s := c.e.lane[it.Lane]; s.req != it.Req && (s.req != nil || c.e.dead == 0) {
				fail("item for request %d points at lane slot %d (request %v)", it.Req.ID, it.Lane, s.req)
			}
		}
	}
	if p := c.e.Preemptions(); p != c.preempts {
		fail("Preemptions %d, model %d", p, c.preempts)
	}
	// A stalled request makes no progress, and every token the engine
	// reported generated is one some request advanced by.
	gen := -c.adopted
	for _, r := range c.reqs {
		gen += r.Generated
		if g, ok := c.stallGen[r]; ok && r.Generated != g {
			fail("stalled request %d advanced from %d to %d tokens", r.ID, g, r.Generated)
		}
	}
	emitted := 0.0
	for _, v := range c.col.Tokens.Sum() {
		emitted += v
	}
	if int(emitted) != gen {
		fail("engine reported %v tokens, requests generated %d", emitted, gen)
	}
}

// heldBlocks sums the blocks every request's Seq holds.
func (c *churn) heldBlocks() int {
	n := 0
	for _, r := range c.reqs {
		if r.Seq != nil {
			n += r.Seq.Blocks()
		}
	}
	return n
}

// drainAndExtract freezes the engine after its in-flight round, extracts
// its request sets the way reconfiguration does, and checks them.
func (c *churn) drainAndExtract() {
	c.t.Helper()
	var running []*request.Request
	done := false
	c.e.Drain(func() {
		running, _ = c.e.ExtractRequests()
		done = true
	})
	for !done && c.simu.Step() {
	}
	if !done {
		c.t.Fatal("engine never drained")
	}
	if got, want := ids(running), ids(c.ref); !slices.Equal(got, want) {
		c.t.Fatalf("ExtractRequests running %v, model %v", got, want)
	}
	// Stalled requests leave in their stall state, which is what keeps
	// them stalled in the engine that adopts them.
	var got, want []int
	for _, r := range running {
		if r.State().Stalled() {
			got = append(got, r.ID)
		}
		if c.stalled[r] {
			want = append(want, r.ID)
		}
	}
	if !slices.Equal(got, want) {
		c.t.Fatalf("ExtractRequests stalled %v, model %v", got, want)
	}
	if n := collect(c.e.EachStalled); len(n) != 0 {
		c.t.Fatalf("extracted engine still visits %d stalled requests", len(n))
	}
}

// TestChurnMatchesReference runs seeded random admissions, finishes,
// Victim preemptions (the test's own and the pressure callback's), stalls,
// unstalls, adoptions and removals — many in the middle of a live round,
// of reserved requests too — against a plain-slice reference model, on
// one stage and on two-stage pipelines under the token-count and the
// lookahead former. Half the episodes run on a pool small enough that
// decode block crossings hit pressure; the other half on a roomy pool,
// where the stop rule is waived, under a token budget smaller than the
// running set. Odd seeds trace (into a discarding tracer), which puts
// every token on the item path; even seeds run untraced, where steady
// decodes take the fast path. After every operation the admission-order
// views, the stalled visit, Victim's choice, the wait queue, the round
// items' lane indices, CheckLane and token conservation must agree with
// the model, and inside every pressure callback Victim must match the
// model's reservation walk; every pipelined round's microbatches must
// match the former's over the round expanded to one item per decode
// (checkForm); each episode ends by draining the engine and extracting
// its requests.
func TestChurnMatchesReference(t *testing.T) {
	cm, err := costmodel.FitFromTimer(gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1))
	if err != nil {
		t.Fatal(err)
	}
	la := &lookahead.Former{Model: cm}
	for _, tc := range []struct {
		name string
		form former
	}{
		{"one-stage", nil},
		{"two-stage/token-count", func(s *batching.Split, dec []batching.Decode, items []batching.Item, stages int) []batching.Microbatch {
			return batching.SplitByTokenCount(s, dec, items, 2*stages)
		}},
		{"two-stage/lookahead", la.Form},
	} {
		t.Run(tc.name, func(t *testing.T) { churnMatchesReference(t, tc.form) })
	}
}

func churnMatchesReference(t *testing.T, form former) {
	var ops, live, preempts, finished, pressures, fast, drops, retakes, cut, formed, dropped, unbooked int
	for seed := int64(1); seed <= 48; seed++ {
		blocks, budget := 24, 40
		switch {
		case seed > 36:
			// A budget this tight cuts the decodes short in some rounds.
			blocks, budget = 1<<12, 2
		case seed > 24:
			blocks, budget = 1<<12, 16
		}
		if form != nil {
			// The iteration budget doubles on two stages.
			budget /= 2
		}
		c := newPipelinedChurn(t, seed, blocks, budget, seed%2 == 1, form)
		for n := 100 + c.rng.Intn(500); n > 0; n-- {
			if c.e.live() {
				live++
			}
			op := c.step()
			c.check(fmt.Sprintf("seed %d op %d (%s)", seed, ops, op))
			ops++
		}
		c.drainAndExtract()
		if traced := seed%2 == 1; traced != (c.e.FastDecodes() == 0) {
			t.Errorf("seed %d (traced %v): %d fast decodes", seed, traced, c.e.FastDecodes())
		}
		preempts += c.preempts
		finished += c.finished
		pressures += c.pressures
		fast += c.e.FastDecodes()
		drops += c.dropsInFlight
		retakes += c.retakes
		cut += c.cut
		formed += c.formed
		dropped += c.unreserved
		unbooked += c.unbooked
	}
	if live == 0 || live == ops || preempts == 0 || finished == 0 || pressures == 0 ||
		fast == 0 || drops == 0 || retakes == 0 || cut == 0 || unbooked == 0 || form != nil && (formed == 0 || dropped == 0) {
		t.Fatalf("%d ops: %d during a live round, %d preemptions, %d finishes, %d pressure calls, %d fast decodes, %d in-flight drops, %d retakes, %d budget cuts, %d checks with unbooked crossings, %d pipelined rounds, %d dropped item decodes; the churn never bit",
			ops, live, preempts, finished, pressures, fast, drops, retakes, cut, unbooked, formed, dropped)
	}
	t.Logf("%d ops (%d during a live round), %d preemptions, %d finishes, %d pressure calls, %d fast decodes, %d in-flight drops, %d retakes, %d budget cuts, %d checks with unbooked crossings, %d pipelined rounds, %d dropped item decodes",
		ops, live, preempts, finished, pressures, fast, drops, retakes, cut, unbooked, formed, dropped)
}

// Warmed, EachStalled collects into the engine's own scratch and
// allocates nothing.
func TestEachVisitAllocatesNothing(t *testing.T) {
	c := newChurn(t, 1, 1<<12, 48, false)
	for i := 0; i < 32; i++ {
		c.adopt()
	}
	for i, r := range c.ref {
		if i%3 == 0 && !c.stalled[r] {
			c.e.Stall(r, request.StateSwapped)
		}
	}
	n := 0
	count := func(*request.Request) { n++ }
	c.e.EachStalled(count)
	if avg := testing.AllocsPerRun(100, func() { c.e.EachStalled(count) }); avg != 0 {
		t.Errorf("EachStalled allocates %.2f times", avg)
	}
	if n == 0 {
		t.Fatal("nothing visited")
	}
}

// A fast round keeps the decodes the item path keeps: the first
// budget-many in lane order, with the stop rule waived on a roomy pool.
// Request 1's token crosses into a counted block on the fast path, and
// request 2's finishes it, so it stays an item; traced and untraced, the
// first round advances exactly requests 0–7.
func TestFastRoundKeepsTheBudget(t *testing.T) {
	for _, traced := range []bool{false, true} {
		c := newChurn(t, 1, 1<<12, 8, traced)
		for id := 0; id < 12; id++ {
			prompt, output := 17, 100
			switch id {
			case 1:
				prompt = 16 // a full tail block: the next token needs a new one
			case 2:
				output = 2 // the next token is the last
			}
			r := request.New(id, 0, prompt, output)
			seq, err := c.pool.NewSeq(prompt)
			if err != nil {
				t.Fatal(err)
			}
			r.Seq = seq
			r.AdvancePrefill(prompt, c.simu.Now())
			r.SetState(request.StateRunning)
			c.e.AdoptRunning(r)
			c.ref = append(c.ref, r)
		}
		c.e.Wake()
		for c.e.RoundsRun() < 2 && c.simu.Step() {
		}
		// The second round is in flight; its tokens are not yet decoded.
		for _, r := range c.e.Running() {
			want := 1
			if r.ID < 8 {
				want = 2
			}
			if r.Generated != want {
				t.Errorf("traced %v: request %d generated %d tokens after one round, want %d",
					traced, r.ID, r.Generated, want)
			}
		}
		// Untraced, the first round's seven fast tokens include request 1's
		// crossing, and the second round's eight fill the budget.
		if fast := c.e.FastDecodes(); traced != (fast == 0) || !traced && fast != 15 {
			t.Errorf("traced %v: %d fast decodes", traced, fast)
		}
	}
}
