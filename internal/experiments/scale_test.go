package experiments

import (
	"io"
	"reflect"
	"testing"

	"kunserve/internal/runner"
	"kunserve/internal/sim"
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

// Streaming mode (bounded reservoirs + lazy arrivals) must not perturb the
// simulation itself: below reservoir capacity the reservoir retains every
// sample, so the summary — counts, percentiles, series — is identical to
// full record retention.
func TestStreamingMatchesExact(t *testing.T) {
	cfg := Quick()
	cfg.Duration = 16 * sim.Second
	cfg.HorizonSlack = 30 * sim.Second
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	run := func(c Config) runner.Summary {
		cl, err := c.Run(SysVLLMDP, tr)
		if err != nil {
			t.Fatal(err)
		}
		return runner.Summarize(cl)
	}
	exact := run(cfg)
	scfg := cfg
	scfg.Stream = true
	stream := run(scfg)
	if exact.Finished == 0 {
		t.Fatal("exact run finished nothing; test trace too small")
	}
	if stream.Finished != exact.Finished || stream.Unserved != exact.Unserved {
		t.Fatalf("streaming counts (%d/%d) != exact (%d/%d)",
			stream.Finished, stream.Unserved, exact.Finished, exact.Unserved)
	}
	if stream.TTFTP50 != exact.TTFTP50 || stream.TTFTP99 != exact.TTFTP99 {
		t.Errorf("streaming TTFT p50/p99 %v/%v != exact %v/%v",
			stream.TTFTP50, stream.TTFTP99, exact.TTFTP50, exact.TTFTP99)
	}
	if stream.Throughput != exact.Throughput {
		t.Errorf("streaming throughput %v != exact %v", stream.Throughput, exact.Throughput)
	}
	// Streaming is itself deterministic: a second run is identical.
	again := run(scfg)
	if !reflect.DeepEqual(stream, again) {
		t.Error("streaming run not deterministic across repetitions")
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
