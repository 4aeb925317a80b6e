package engine

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/kvcache"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
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

// The stage pipeline is role-selected: decode groups run no admission
// stage (their work arrives by handoff adoption), everyone else runs the
// full pipeline in the same order the monolithic loop used.
func TestStagePipelineSelection(t *testing.T) {
	names := func(role Role) []string {
		var out []string
		for _, s := range stagesFor(role) {
			out = append(out, s.name)
		}
		return out
	}
	full := []string{"policy", "admit", "collect", "form", "reserve", "launch"}
	if got := names(RoleCollocated); !reflect.DeepEqual(got, full) {
		t.Errorf("collocated stages = %v", got)
	}
	if got := names(RolePrefill); !reflect.DeepEqual(got, full) {
		t.Errorf("prefill stages = %v", got)
	}
	noAdmit := []string{"policy", "collect", "form", "reserve", "launch"}
	if got := names(RoleDecode); !reflect.DeepEqual(got, noAdmit) {
		t.Errorf("decode stages = %v", got)
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
	timer := gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1)
	e := New(Options{
		Sim:        simu,
		Pool:       pool,
		Pipeline:   pipeline.New(simu, []*pipeline.Stage{{Timer: timer}}, 1),
		Queue:      sched.NewFCFS(),
		Collector:  col,
		Budget:     batching.Budget{MaxTokens: 256},
		Depth:      1,
		RetryDelay: sim.Millisecond,
		Callbacks: Callbacks{
			BeforeAdmit:    func() {},
			HandlePressure: func(int) bool { return false },
			Finished:       func(*request.Request) {},
		},
	})
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
