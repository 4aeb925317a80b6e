package engine

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/network"
	"kunserve/internal/pipeline"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
)

func TestRoleSemantics(t *testing.T) {
	cases := []struct {
		role                      Role
		admits, prefills, decodes bool
		name                      string
	}{
		{RoleCollocated, true, true, true, "collocated"},
		{RolePrefill, true, true, false, "prefill"},
		{RoleDecode, false, false, true, "decode"},
	}
	for _, c := range cases {
		if c.role.AdmitsNewArrivals() != c.admits {
			t.Errorf("%v AdmitsNewArrivals = %v", c.role, !c.admits)
		}
		if c.role.RunsPrefill() != c.prefills {
			t.Errorf("%v RunsPrefill = %v", c.role, !c.prefills)
		}
		if c.role.RunsDecode() != c.decodes {
			t.Errorf("%v RunsDecode = %v", c.role, !c.decodes)
		}
		if c.role.String() != c.name {
			t.Errorf("%v String = %q", c.role, c.role.String())
		}
	}
	if !strings.Contains(Role(42).String(), "42") {
		t.Error("unknown role name")
	}
}

// testEngine builds a single-stage engine on a 14B model and an A800
// whose policy callbacks do nothing.
func testEngine(simu *sim.Simulation, pool *kvcache.Pool, col *metrics.Collector) *Engine {
	return New(Options{
		Sim:        simu,
		Pool:       pool,
		Timer:      gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1),
		Queue:      sched.NewFCFS(),
		Collector:  col,
		Budget:     batching.Budget{MaxTokens: 256},
		Depth:      1,
		RetryDelay: sim.Millisecond,
		Callbacks: Callbacks{
			BeforeAdmit:    func() {},
			HandlePressure: func(int) bool { return false },
			Finished:       func(*request.Request) {},
			Handoff:        func(*request.Request) bool { return false },
		},
	})
}

// A round's steps are role-selected: decode groups skip admission (their
// work arrives by handoff adoption), everyone else runs every step, in
// the order the hook and the tracer see them.
func TestRoundStepOrder(t *testing.T) {
	full := []string{"start", "policy", "admit", "collect", "form", "reserve", "launch"}
	noAdmit := []string{"start", "policy", "collect", "form", "reserve", "launch"}
	for _, c := range []struct {
		role  Role
		steps []string
	}{
		{RoleCollocated, full},
		{RolePrefill, full},
		{RoleDecode, noAdmit},
	} {
		simu := sim.New(1)
		e := testEngine(simu, kvcache.NewPool(64, 16), metrics.NewCollector(sim.Second, nil))
		if err := e.SetRole(c.role); err != nil {
			t.Fatal(err)
		}
		var got []string
		e.hook = func(step string) { got = append(got, step) }
		e.Wake()
		if !slices.Equal(got, c.steps) {
			t.Errorf("%v round steps = %v, want %v", c.role, got, c.steps)
		}
	}
}

// A depth-1 engine runs on a timer alone; a deeper one needs a pipeline
// of its depth.
func TestNewChecksExecutor(t *testing.T) {
	simu := sim.New(1)
	cfg := model.Qwen25_14B()
	timer := gpu.NewTimer(gpu.A800(), cfg, 1)
	half := cfg.Partial(cfg.Layers / 2)
	var stages []*pipeline.Stage
	for i := 0; i < 2; i++ {
		stages = append(stages, &pipeline.Stage{Timer: gpu.NewTimer(gpu.A800(), half, 1),
			Egress: network.NewLink(simu, "egress", network.RDMA200, network.DefaultLatency)})
	}
	pipe := pipeline.New(simu, stages, 1)
	for _, c := range []struct {
		name  string
		depth int
		timer *gpu.Timer
		pipe  *pipeline.Engine
	}{
		{"depth 1 without a timer", 1, nil, nil},
		{"depth 1 with a pipeline", 1, timer, pipe},
		{"depth 2 without a pipeline", 2, timer, nil},
		{"depth 3 on a two-stage pipeline", 3, nil, pipe},
		{"depth 0", 0, timer, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			New(Options{Sim: simu, Depth: c.depth, Timer: c.timer, Pipeline: c.pipe})
		}()
	}
}

// A single-stage round runs on the group's timer: its finish fires exactly
// Timer.Time over the round's chunk work and fast decodes after launch,
// for a prefill round and for an all-fast decode round.
func TestSingleStageRoundTakesTimerTime(t *testing.T) {
	simu := sim.New(1)
	pool := kvcache.NewPool(1024, 16)
	e := testEngine(simu, pool, metrics.NewCollector(sim.Second, nil))
	type launch struct {
		at    sim.Time
		dur   sim.Duration
		items int
		fast  gpu.DecodeSum
	}
	var launches []launch
	var finishes []sim.Time
	e.hook = func(step string) {
		switch {
		case step == "start" && len(launches) > len(finishes):
			finishes = append(finishes, simu.Now())
		case step == "launch" && e.Executing():
			launches = append(launches, launch{simu.Now(),
				e.timer.Time(batching.ToChunkWork(e.rd.items), e.rd.fast), len(e.rd.items), e.rd.fast})
		}
	}
	for i := 3; i >= 0; i-- {
		// EnqueueFront does not wake the engine, so one round admits all four.
		e.EnqueueFront(request.New(i, 0, 64, 8))
	}
	e.Wake()
	for len(finishes) < 2 && simu.Step() {
	}
	if len(finishes) < 2 {
		t.Fatalf("%d rounds finished, want 2", len(finishes))
	}
	prefill, decode := launches[0], launches[1]
	if prefill.items != 4 || prefill.fast.N != 0 {
		t.Fatalf("first round: %d items, %d fast decodes; want 4 prefill chunks", prefill.items, prefill.fast.N)
	}
	if decode.items != 0 || decode.fast.N != 4 {
		t.Fatalf("second round: %d items, %d fast decodes; want 4 fast decodes", decode.items, decode.fast.N)
	}
	for k, l := range launches[:2] {
		if l.dur <= 0 || finishes[k] != l.at.Add(l.dur) {
			t.Errorf("round %d launched at %v for %v, finished at %v", k, l.at, l.dur, finishes[k])
		}
	}
}

// The lane's slot stays 80 bytes: its flags, the stalled bit among them,
// share the padding after the counters.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 80 {
		t.Errorf("slot is %d bytes, want 80", n)
	}
}

// A decode-role engine counts the handed-off requests that await their
// first decode. The count holds the fast path off until each has decoded
// once, each first decode reports its decode-queue wait exactly once, and
// a request that leaves before it (preempted or moved away) takes its
// stamp and its share of the count with it.
func TestDecodeReadyCount(t *testing.T) {
	simu := sim.New(1)
	pool := kvcache.NewPool(1024, 16)
	col := metrics.NewCollector(sim.Second, nil)
	e := testEngine(simu, pool, col)
	if err := e.SetRole(RoleDecode); err != nil {
		t.Fatal(err)
	}
	check := func(awaiting int) {
		t.Helper()
		if _, err := e.CheckLane(); err != nil {
			t.Fatal(err)
		}
		if e.nAwaitDecode != awaiting {
			t.Fatalf("%d requests await their first decode, want %d", e.nAwaitDecode, awaiting)
		}
	}
	var rs []*request.Request
	for i := 0; i < 4; i++ {
		r := request.New(i, 0, 32, 8)
		seq, err := pool.NewSeq(32)
		if err != nil {
			t.Fatal(err)
		}
		r.Seq = seq
		r.SetState(request.StateRunning)
		r.AdvancePrefill(32, 0)
		e.AdoptRunning(r)
		e.MarkDecodeReady(r)
		rs = append(rs, r)
	}
	check(4)
	if e.fastLimit() != 0 {
		t.Fatal("fast path open while requests await their first decode")
	}
	e.PreemptDetach(rs[0])
	e.RemoveRequest(rs[1])
	rs[1].Seq.Free()
	check(2)
	for _, r := range rs[:2] {
		if r.WaitStart != request.NoWait {
			t.Errorf("request %d left with its decode-ready stamp", r.ID)
		}
	}
	e.Wake()
	simu.Run()
	check(0)
	if n := col.StageWaits[metrics.StageDecodeQueue].Count(); n != 2 {
		t.Errorf("%d decode-queue waits observed, want 2", n)
	}
	if e.FastDecodes() == 0 {
		t.Error("fast path stayed off after every first decode")
	}
	for _, r := range rs[2:] {
		if !r.Done() || r.WaitStart != request.NoWait {
			t.Errorf("request %d: done %v, stamp %v", r.ID, r.Done(), r.WaitStart)
		}
	}
}
