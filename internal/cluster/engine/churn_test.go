package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/obs"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
)

// churn drives one engine through random membership changes and keeps a
// plain-slice reference model of its running set: ref holds the running
// requests in admission order, stalled the subset the test stalled.
type churn struct {
	t    *testing.T
	rng  *rand.Rand
	simu *sim.Simulation
	pool *kvcache.Pool
	e    *Engine

	reqs     map[int]*request.Request
	ref      []*request.Request
	stalled  map[*request.Request]bool
	nextID   int
	preempts int
	finished int
}

// Emit implements obs.Tracer: the engine's admit instants tell the model
// which queued request joined the running set, in admission order.
func (c *churn) Emit(ev obs.Event) {
	if ev.Cat == obs.CatQueue && ev.Name == "admit" {
		c.ref = append(c.ref, c.reqs[ev.Req])
	}
}

func newChurn(t *testing.T, seed int64, blocks int) *churn {
	c := &churn{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		simu:    sim.New(seed),
		pool:    kvcache.NewPool(blocks, 16),
		reqs:    make(map[int]*request.Request),
		stalled: make(map[*request.Request]bool),
	}
	stage := &pipeline.Stage{Timer: gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)}
	c.e = New(Options{
		Sim:        c.simu,
		Pool:       c.pool,
		Pipeline:   pipeline.New(c.simu, []*pipeline.Stage{stage}, 1),
		Queue:      sched.NewFCFS(),
		Collector:  metrics.NewCollector(sim.Second),
		Budget:     batching.Budget{MaxTokens: 48},
		Depth:      1,
		RetryDelay: sim.Millisecond,
		Tracer:     c,
		Callbacks: Callbacks{
			BeforeAdmit: func() {},
			HandlePressure: func(int) bool {
				v := c.e.Victim()
				if v == nil {
					return false
				}
				c.preempt(v)
				return true
			},
			Finished: func(r *request.Request) {
				c.leave(r)
				c.finished++
			},
		},
	})
	return c
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
	i := slices.Index(c.ref, r)
	if i < 0 {
		c.t.Fatalf("request %d left the engine but the model does not hold it", r.ID)
	}
	c.ref = slices.Delete(c.ref, i, i+1)
	delete(c.stalled, r)
}

func (c *churn) preempt(r *request.Request) {
	c.leave(r)
	c.preempts++
	c.e.PreemptRecompute(r)
}

// adopt adds a fresh request straight to the running set, as a handoff or
// migration does: half of them arrive prefilled and decode-ready (hot),
// half with an empty Seq still to prefill.
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
	}
	r.SetState(request.StateRunning)
	c.e.AdoptRunning(r)
	c.ref = append(c.ref, r)
}

// pick returns a random running request the test has (or has not)
// stalled. Like a policy's, the test's stalls skip the current round's
// reserved requests: a token reserved for a request stalled before its
// round finishes stays in its Seq, ahead of its context.
func (c *churn) pick(stalled bool) *request.Request {
	var in []*request.Request
	reserved := c.reserved()
	for _, r := range c.ref {
		if c.stalled[r] == stalled && !reserved[r] {
			in = append(in, r)
		}
	}
	if len(in) == 0 {
		return nil
	}
	return in[c.rng.Intn(len(in))]
}

// step applies one random operation.
func (c *churn) step() string {
	busy := len(c.ref)+c.e.QueueLen() >= 48
	switch op := c.rng.Intn(20); {
	case op < 3 && !busy:
		c.e.Enqueue(c.fresh())
		return "enqueue"
	case op < 6:
		if v := c.e.Victim(); v != nil {
			c.preempt(v)
		}
		return "preempt"
	case op < 8:
		if r := c.pick(false); r != nil {
			c.e.Stall(r, request.StateSwapped)
			c.stalled[r] = true
		}
		return "stall"
	case op < 10:
		if r := c.pick(true); r != nil {
			delete(c.stalled, r)
			c.e.Unstall(r)
		}
		return "unstall"
	case op < 12 && !busy:
		c.adopt()
		return fmt.Sprintf("adopt (executing %v)", c.e.Executing())
	case op < 13:
		c.e.Wake()
		return "wake"
	case op < 14:
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

func ids(rs []*request.Request) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// reserved is the set of requests the current round holds items for.
func (c *churn) reserved() map[*request.Request]bool {
	out := make(map[*request.Request]bool)
	for _, it := range c.e.rd.items {
		if it.Lane >= 0 {
			out[it.Req] = true
		}
	}
	return out
}

// refVictim is Victim by definition: the youngest running request that is
// neither stalled nor reserved in the current round, the earliest admitted
// among equal arrivals.
func (c *churn) refVictim() *request.Request {
	reserved := c.reserved()
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
	want := ids(c.ref)
	if got := ids(c.e.Running()); !slices.Equal(got, want) {
		fail("Running %v, model %v", got, want)
	}
	if got := ids(collect(c.e.EachRunning)); !slices.Equal(got, want) {
		fail("EachRunning %v, model %v", got, want)
	}
	var wantStalled []int
	for _, r := range c.ref {
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
	if _, err := c.e.CheckLane(); err != nil {
		fail("%v", err)
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
	if wv, gv := c.refVictim(), c.e.Victim(); wv != gv {
		fail("Victim %v, model %v", gv, wv)
	}
	if p := c.e.Preemptions(); p != c.preempts {
		fail("Preemptions %d, model %d", p, c.preempts)
	}
}

// drainAndExtract freezes the engine after its in-flight round, extracts
// its request sets the way reconfiguration does, and checks them.
func (c *churn) drainAndExtract() {
	c.t.Helper()
	var running []*request.Request
	var stalled map[int]*request.Request
	done := false
	c.e.Drain(func() {
		running, _, stalled = c.e.ExtractRequests()
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
	if len(stalled) != len(c.stalled) {
		c.t.Fatalf("ExtractRequests stalled %d, model %d", len(stalled), len(c.stalled))
	}
	for r := range c.stalled {
		if stalled[r.ID] != r {
			c.t.Fatalf("ExtractRequests lost stalled request %d", r.ID)
		}
	}
}

// TestChurnMatchesReference runs seeded random admissions, finishes,
// Victim preemptions (the test's own and the pressure callback's), stalls,
// unstalls and adoptions — many in the middle of a live round — against a
// plain-slice reference model. After every operation the admission-order
// views, the stalled visit, Victim's choice, the round items' lane indices
// and CheckLane must agree with the model; each episode ends by draining
// the engine and extracting its requests.
func TestChurnMatchesReference(t *testing.T) {
	var ops, live, preempts, finished int
	for seed := int64(1); seed <= 24; seed++ {
		c := newChurn(t, seed, 96)
		for n := 100 + c.rng.Intn(500); n > 0; n-- {
			if c.e.live() {
				live++
			}
			op := c.step()
			c.check(fmt.Sprintf("seed %d op %d (%s)", seed, ops, op))
			ops++
		}
		c.drainAndExtract()
		preempts += c.preempts
		finished += c.finished
	}
	if live == 0 || live == ops || preempts == 0 || finished == 0 {
		t.Fatalf("%d ops: %d during a live round, %d preemptions, %d finishes; the churn never bit",
			ops, live, preempts, finished)
	}
	t.Logf("%d ops (%d during a live round), %d preemptions, %d finishes", ops, live, preempts, finished)
}

// Warmed, EachRunning and EachStalled sort into the engine's own scratch
// and allocate nothing.
func TestEachVisitAllocatesNothing(t *testing.T) {
	c := newChurn(t, 1, 1<<12)
	for i := 0; i < 32; i++ {
		c.adopt()
	}
	for i, r := range c.ref {
		if i%3 == 0 {
			c.e.Stall(r, request.StateSwapped)
		}
	}
	n := 0
	count := func(*request.Request) { n++ }
	for name, each := range map[string]func(func(*request.Request)){
		"EachRunning": c.e.EachRunning,
		"EachStalled": c.e.EachStalled,
	} {
		each(count)
		if avg := testing.AllocsPerRun(100, func() { each(count) }); avg != 0 {
			t.Errorf("%s allocates %.2f times", name, avg)
		}
	}
	if n == 0 {
		t.Fatal("nothing visited")
	}
}
