package core

import (
	"slices"
	"testing"

	"kunserve/internal/baselines"
	"kunserve/internal/cluster"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

func newCluster(t *testing.T, instances int, opts Options) (*cluster.Cluster, *Policy) {
	t.Helper()
	p := New(opts)
	c, err := cluster.New(cluster.Config{
		Seed:      1,
		Model:     model.Qwen25_14B(),
		GPU:       gpu.A800(),
		Instances: instances,
		Policy:    p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func flatTrace(n int, gap float64, in, out int) *workload.Trace {
	tr := &workload.Trace{Name: "test"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID: i, Arrival: sim.FromSeconds(float64(i) * gap), InputLen: in, OutputLen: out,
		})
	}
	return tr
}

// overload builds a trace that overflows the cluster's aggregate capacity
// quickly: the Figure 2 situation.
func overload(c *cluster.Cluster, factor float64) *workload.Trace {
	capTokens := 0
	for _, g := range c.Groups() {
		capTokens += g.CapacityTokens()
	}
	per := capTokens / 8
	n := int(float64(8) * factor)
	return flatTrace(n, 0.05, per*3/4, per/4)
}

func checkDone(t *testing.T, c *cluster.Cluster, want int) {
	t.Helper()
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding = %d of %d", c.Outstanding(), want)
	}
	if got := c.Collector.TTFT.Count(); got != want {
		t.Fatalf("finished = %d, want %d", got, want)
	}
	for _, g := range c.Groups() {
		if err := g.Pool().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if g.Pool().LiveSequences() != 0 {
			t.Error("leaked sequences")
		}
		for _, in := range g.Instances() {
			if err := in.Mem.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSetupFitsCostModel(t *testing.T) {
	_, p := newCluster(t, 2, Options{})
	if p.CostModel() == nil {
		t.Fatal("no cost model after setup")
	}
	if p.CostModel().Alpha <= 0 {
		t.Error("degenerate fit")
	}
	if p.Name() != "KunServe" {
		t.Error("name")
	}
}

func TestLightLoadNeverDrops(t *testing.T) {
	c, p := newCluster(t, 2, Options{})
	c.Serve(flatTrace(10, 0.5, 512, 32), sim.FromSeconds(120))
	checkDone(t, c, 10)
	if p.Drops() != 0 {
		t.Errorf("drops = %d under light load", p.Drops())
	}
	if len(c.Groups()) != 2 {
		t.Errorf("groups = %d", len(c.Groups()))
	}
}

func TestOverloadTriggersDrop(t *testing.T) {
	c, p := newCluster(t, 2, Options{DisableRestore: true})
	tr := overload(c, 2.0)
	c.Serve(tr, sim.FromSeconds(8000))
	checkDone(t, c, len(tr.Requests))
	if p.Drops() == 0 {
		t.Fatal("no drop under overload")
	}
	// After the drop the two instances form one pipelined group.
	if len(c.Groups()) != 1 {
		t.Errorf("groups = %d after drop without restore", len(c.Groups()))
	}
	g := c.Groups()[0]
	if g.Stages() != 2 {
		t.Errorf("stages = %d", g.Stages())
	}
	for _, in := range g.Instances() {
		if in.HoldsFullCopy() {
			t.Error("instance still holds full copy after drop")
		}
	}
	ev := p.Events()
	if len(ev) == 0 || ev[0].Kind != "drop" || ev[0].FreedBytes <= 0 {
		t.Errorf("events = %+v", ev)
	}
}

func TestDropGrowsClusterKVCapacity(t *testing.T) {
	c, p := newCluster(t, 2, Options{DisableRestore: true})
	before := c.CapacityBytes()
	tr := overload(c, 2.0)
	c.Serve(tr, sim.FromSeconds(8000))
	if p.Drops() == 0 {
		t.Skip("no drop triggered")
	}
	after := c.CapacityBytes()
	if after <= before {
		t.Errorf("capacity %d -> %d; drop freed nothing", before, after)
	}
	// One 14B copy ≈ 27.5 GiB of new KV space.
	gained := float64(after-before) / float64(model.GiB)
	if gained < 20 || gained > 35 {
		t.Errorf("capacity gain = %.1f GiB, want ~27.5", gained)
	}
}

func TestRestoreReturnsToDP(t *testing.T) {
	c, p := newCluster(t, 2, Options{})
	tr := overload(c, 1.5)
	c.Serve(tr, sim.FromSeconds(8000))
	checkDone(t, c, len(tr.Requests))
	if p.Drops() == 0 {
		t.Fatal("no drop")
	}
	if p.Restores() == 0 {
		t.Fatal("no restore after load subsided")
	}
	if len(c.Groups()) != 2 {
		t.Errorf("groups = %d after restore", len(c.Groups()))
	}
	for _, g := range c.Groups() {
		if g.Stages() != 1 {
			t.Error("pipelined group survived restore")
		}
		for _, in := range g.Instances() {
			if !in.HoldsFullCopy() {
				t.Error("instance missing layers after restore")
			}
		}
	}
}

// The headline claim, in miniature: under the same overload, KunServe's
// P99 TTFT beats vLLM (DP) by a wide margin because queued requests are
// served from dropped-parameter memory instead of waiting.
func TestKunServeBeatsVLLMTailTTFT(t *testing.T) {
	cv, _ := newCluster(t, 2, Options{})
	trv := overload(cv, 1.5)
	cv.Serve(trv, sim.FromSeconds(8000))

	dp, err := cluster.New(cluster.Config{
		Seed: 1, Model: model.Qwen25_14B(), GPU: gpu.A800(),
		Instances: 2, Policy: baselines.VLLMDP{},
	})
	if err != nil {
		t.Fatal(err)
	}
	trd := overload(dp, 1.5)
	dp.Serve(trd, sim.FromSeconds(8000))

	if cv.Outstanding() != 0 || dp.Outstanding() != 0 {
		t.Fatalf("outstanding: kunserve=%d vllm=%d", cv.Outstanding(), dp.Outstanding())
	}
	ks99 := cv.Collector.TTFT.Percentile(99)
	dp99 := dp.Collector.TTFT.Percentile(99)
	if ks99 >= dp99 {
		t.Errorf("KunServe P99 TTFT %.2fs >= vLLM %.2fs", ks99, dp99)
	}
	t.Logf("P99 TTFT: KunServe %.2fs vs vLLM (DP) %.2fs (%.1fx)", ks99, dp99, dp99/ks99)
}

func TestAblationKnobsRun(t *testing.T) {
	for _, opts := range []Options{
		{DisableCoordinatedExchange: true, UseTokenCountFormer: true, DisableRestore: true},
		{UseTokenCountFormer: true, DisableRestore: true},
		{DisableRestore: true},
	} {
		c, _ := newCluster(t, 2, opts)
		tr := overload(c, 1.2)
		c.Serve(tr, sim.FromSeconds(8000))
		checkDone(t, c, len(tr.Requests))
	}
}

func TestFourWayMerge(t *testing.T) {
	// Heavier overload on 4 instances: one drop merges all four
	// singletons into two pipelined groups (sizes 2+2), the widest
	// merge the stage cap allows.
	c, p := newCluster(t, 4, Options{DisableRestore: true})
	tr := overload(c, 2.5)
	c.Serve(tr, sim.FromSeconds(12000))
	checkDone(t, c, len(tr.Requests))
	if p.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", p.Drops())
	}
	groups := c.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for _, g := range groups {
		if g.Stages() != 2 {
			t.Errorf("group %d has %d stages, want 2", g.ID, g.Stages())
		}
	}
	// Layer conservation across all groups.
	for _, g := range groups {
		sum := 0
		for _, in := range g.Instances() {
			sum += in.LayersHeld()
		}
		if sum != c.Model.Layers {
			t.Errorf("group %d holds %d layers", g.ID, sum)
		}
	}
}

func TestFailInstanceRecovers(t *testing.T) {
	c, p := newCluster(t, 2, Options{DisableRestore: true})
	tr := overload(c, 1.5)
	// Fail one instance mid-run, after the drop likely happened.
	c.Sim.At(sim.FromSeconds(30), "fail", func() {
		// Find any live instance in a group.
		g := c.Groups()[0]
		if err := p.FailInstance(c, g.Instances()[0].ID); err != nil {
			t.Logf("fail skipped: %v", err)
		}
	})
	c.Serve(tr, sim.FromSeconds(12000))
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after failover", c.Outstanding())
	}
	if len(p.FailedInstances()) != 1 {
		t.Fatalf("failed instances = %v", p.FailedInstances())
	}
	// Survivors hold full copies.
	for _, g := range c.Groups() {
		for _, in := range g.Instances() {
			if !in.HoldsFullCopy() {
				t.Error("survivor missing layers")
			}
		}
	}
	// Double-fail is rejected.
	if err := p.FailInstance(c, p.FailedInstances()[0]); err == nil {
		t.Error("double failure accepted")
	}
}

// §4.4's pipelined failure path: once the drop has merged both instances
// into one two-stage group, failing a stage leaves the survivor to reload
// its missing layers from the host replica and recompute the group's
// in-flight requests. The finished count and the exact P99 TTFT pin the
// run, since no CLI gate fails an instance.
func TestFailInstanceInPipelinedGroup(t *testing.T) {
	c, p := newCluster(t, 2, Options{DisableRestore: true})
	tr := overload(c, 1.5)
	// The run's only drop ends at 47.05 s.
	c.Sim.At(sim.FromSeconds(50), "fail", func() {
		groups := c.Groups()
		if p.Drops() != 1 || len(groups) != 1 || groups[0].Stages() != 2 {
			t.Fatalf("at the failure: %d drops, %d groups", p.Drops(), len(groups))
		}
		if err := p.FailInstance(c, groups[0].Instances()[0].ID); err != nil {
			t.Fatal(err)
		}
	})
	c.Serve(tr, sim.FromSeconds(12000))
	checkDone(t, c, 12)
	groups := c.Groups()
	if len(groups) != 1 || groups[0].Stages() != 1 || !groups[0].Instances()[0].HoldsFullCopy() {
		t.Fatalf("survivor groups = %d, want one full-copy singleton", len(groups))
	}
	if got := p.FailedInstances(); !slices.Equal(got, []int{0}) {
		t.Fatalf("failed instances = %v, want [0]", got)
	}
	if got, want := c.Collector.TTFT.Percentile(99), 1529.105603225; got != want {
		t.Errorf("P99 TTFT = %v s, want %v s", got, want)
	}
}

// A failure while a restore pulls its layers: the failover takes the group,
// so the restore is abandoned when its pulls land, and the failed instance
// never rejoins service.
func TestFailInstanceMidRestore(t *testing.T) {
	c, p := newCluster(t, 2, Options{})
	tr := overload(c, 1.5)
	// The run's restore starts at 1691 s and its pulls take 0.62 s.
	c.Sim.At(sim.FromSeconds(1691.2), "fail", func() {
		ev := p.Events()
		if last := ev[len(ev)-1]; last.Kind != "restore" || last.End != 0 {
			t.Fatalf("no restore in flight at the failure: %+v", ev)
		}
		if err := p.FailInstance(c, 0); err != nil {
			t.Fatal(err)
		}
	})
	c.Serve(tr, sim.FromSeconds(8000))
	checkDone(t, c, len(tr.Requests))
	if p.Restores() != 0 {
		t.Errorf("restores = %d, want the interrupted one abandoned", p.Restores())
	}
	groups := c.Groups()
	if len(groups) != 1 || groups[0].Stages() != 1 || groups[0].Instances()[0].ID != 1 ||
		!groups[0].Instances()[0].HoldsFullCopy() {
		t.Fatalf("groups after the failover = %d, want instance 1 alone with a full copy", len(groups))
	}
}

// FailedInstances lists failed instances in ascending ID order, whatever
// order they failed in.
func TestFailedInstancesAscending(t *testing.T) {
	c, p := newCluster(t, 3, Options{DisableRestore: true})
	groupOf := func(id int) int {
		for _, g := range c.Groups() {
			for _, in := range g.Instances() {
				if in.ID == id {
					return g.ID
				}
			}
		}
		return -1
	}
	if groupOf(0) == groupOf(2) {
		t.Fatalf("instances 0 and 2 share group %d", groupOf(0))
	}
	for _, at := range []struct {
		sec float64
		id  int
	}{{5, 2}, {10, 0}} {
		c.Sim.At(sim.FromSeconds(at.sec), "fail", func() {
			if err := p.FailInstance(c, at.id); err != nil {
				t.Errorf("fail %d: %v", at.id, err)
			}
		})
	}
	tr := flatTrace(40, 0.5, 256, 32)
	c.Serve(tr, sim.FromSeconds(600))
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after failover", c.Outstanding())
	}
	if got := p.FailedInstances(); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("failed instances = %v, want [0 2]", got)
	}
}

func TestBurstyTraceEndToEnd(t *testing.T) {
	c, p := newCluster(t, 4, Options{})
	base := workload.Generate(3, 30*sim.Second, workload.BurstSchedule(3), workload.BurstGPTDataset())
	c.Serve(base, sim.FromSeconds(2000))
	checkDone(t, c, len(base.Requests))
	t.Logf("drops=%d restores=%d p99TTFT=%.3fs", p.Drops(), p.Restores(),
		c.Collector.TTFT.Percentile(99))
}
