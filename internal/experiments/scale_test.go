package experiments

import (
	"io"
	"reflect"
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

func TestScaleLadder(t *testing.T) {
	cases := []struct {
		target int
		want   []int
	}{
		{512, []int{128, 256, 512}},
		{8, []int{2, 4, 8}},
		{4, []int{2, 4}},
		{2, []int{2}},
		{1, []int{2}},
	}
	for _, c := range cases {
		if got := scaleLadder(c.target); !reflect.DeepEqual(got, c.want) {
			t.Errorf("scaleLadder(%d) = %v, want %v", c.target, got, c.want)
		}
	}
}

// Bounded metrics (the reservoirs -exp scale runs with) must not perturb
// the simulation itself: below reservoir capacity the reservoir retains
// every sample, so the summary — counts, percentiles, series — is
// identical to full record retention. The second input replays the trace at whole-second
// resolution, so arrivals tie with each other and with the 1 s monitor
// ticks; that holds only because every run schedules arrivals under the
// same reserved sequence numbers.
func TestStreamingMatchesExact(t *testing.T) {
	cfg := Quick()
	cfg.Duration = 16 * sim.Second
	cfg.HorizonSlack = 30 * sim.Second
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	whole := &workload.Trace{Name: "whole-second",
		Requests: append([]workload.Request(nil), tr.Requests...)}
	for i := range whole.Requests {
		r := &whole.Requests[i]
		r.Arrival -= r.Arrival % sim.Time(sim.Second)
	}
	// run serves tr exactly, or with the bounded collector built the way
	// ExperimentScale builds it.
	run := func(bounded bool, sys System, tr *workload.Trace) runner.Summary {
		cc := cfg.withDefaults().clusterConfig(tr)
		if bounded {
			cc.MetricsReservoir = runner.DefaultReservoir
		}
		res := runner.Run(runner.Cell{
			Key:       string(sys),
			Cluster:   cc,
			NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
			Trace:     tr,
			Horizon:   tr.Duration().Add(cfg.HorizonSlack),
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Summary
	}
	cases := []struct {
		tr   *workload.Trace
		syss []System
	}{
		{tr, []System{SysVLLMDP}},
		{whole, []System{SysVLLMDP, SysVLLMPP, SysInferCept, SysLlumnix, SysKunServe}},
	}
	for _, c := range cases {
		for _, sys := range c.syss {
			exact := run(false, sys, c.tr)
			bounded := run(true, sys, c.tr)
			if exact.Finished == 0 {
				t.Fatalf("%s/%s: exact run finished nothing; test trace too small", c.tr.Name, sys)
			}
			// Bounded metrics keep no per-record slices; below reservoir
			// capacity everything else matches.
			exact.TTFTs, exact.TPOTs, exact.Outputs = nil, nil, nil
			if !reflect.DeepEqual(bounded, exact) {
				t.Errorf("%s/%s: bounded summary differs from exact:\nbounded %+v\nexact   %+v",
					c.tr.Name, sys, bounded, exact)
			}
		}
	}
	// A bounded run is itself deterministic: a second run is identical.
	if !reflect.DeepEqual(run(true, SysVLLMDP, tr), run(true, SysVLLMDP, tr)) {
		t.Error("bounded run not deterministic across repetitions")
	}
}

func TestExperimentScaleSmoke(t *testing.T) {
	cfg := Quick()
	cfg.Instances = 4
	cfg.Duration = 16 * sim.Second
	cfg.HorizonSlack = 30 * sim.Second
	r, err := ExperimentScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rungs) != 2 {
		t.Fatalf("rungs = %d, want 2 (ladder of 4)", len(r.Rungs))
	}
	for _, rung := range r.Rungs {
		if rung.Requests == 0 {
			t.Fatalf("rung %d generated no requests", rung.Instances)
		}
		if len(rung.Systems) != 2 {
			t.Fatalf("rung %d has %d systems, want 2", rung.Instances, len(rung.Systems))
		}
		for _, c := range rung.Systems {
			if c.Finished == 0 {
				t.Errorf("rung %d %s finished nothing", rung.Instances, c.System)
			}
			if c.Throughput <= 0 {
				t.Errorf("rung %d %s throughput %v", rung.Instances, c.System, c.Throughput)
			}
		}
	}
	if r.Rungs[0].Instances != 2 || r.Rungs[1].Instances != 4 {
		t.Errorf("ladder = %d,%d, want 2,4", r.Rungs[0].Instances, r.Rungs[1].Instances)
	}
	if r.Timing == nil {
		t.Fatal("scale result carries no timing block")
	}
	for _, rt := range r.Timing.Rungs {
		if rt.WallSeconds <= 0 || len(rt.Cells) != len(scaleSystems) {
			t.Fatalf("rung %d timing malformed: %+v", rt.Instances, rt)
		}
	}
	// More instances at the same per-instance load serve more requests.
	if r.Rungs[1].Requests <= r.Rungs[0].Requests {
		t.Errorf("rung sizes: %d requests at 4 instances <= %d at 2",
			r.Rungs[1].Requests, r.Rungs[0].Requests)
	}
	PrintExperimentScale(io.Discard, r)
}

// TestScaleIntraCellIdentical runs the scale ladder with one cell worker and
// with four: the timing block reports the width it ran at, and everything
// else in the result is identical, since each cell's simulation runs
// sequentially on its own inputs whatever the pool width.
func TestScaleIntraCellIdentical(t *testing.T) {
	cfg := Quick()
	cfg.Instances = 4
	cfg.Duration = 16 * sim.Second
	run := func(workers int) *ScaleResult {
		c := cfg
		c.Parallel = workers
		r, err := ExperimentScale(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Timing == nil {
			t.Fatal("scale result carries no timing block")
		}
		if r.Timing.Workers != workers {
			t.Fatalf("timing reports %d workers, want %d", r.Timing.Workers, workers)
		}
		r.Timing = nil // host-dependent by nature; identity applies to the rest
		for i := range r.Rungs {
			r.Rungs[i].WallSeconds = 0
		}
		return r
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Fatal("scale results differ across cell worker counts")
	}
}
