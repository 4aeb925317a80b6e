package baselines

import (
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

func newCluster(t *testing.T, instances int, pol cluster.Policy) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Seed:      1,
		Model:     model.Qwen25_14B(),
		GPU:       gpu.A800(),
		Instances: instances,
		Policy:    pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func burstTrace(n int, gap float64, in, out int) *workload.Trace {
	tr := &workload.Trace{Name: "test"}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID:        i,
			Arrival:   sim.FromSeconds(float64(i) * gap),
			InputLen:  in,
			OutputLen: out,
		})
	}
	return tr
}

// overloadTrace sizes requests so a single instance's pool overflows
// mid-decode.
func overloadTrace(c *cluster.Cluster, n int) *workload.Trace {
	capTokens := c.Groups()[0].CapacityTokens()
	return burstTrace(n, 0.05, capTokens/3, capTokens/12)
}

func checkHealthy(t *testing.T, c *cluster.Cluster, want int) {
	t.Helper()
	if c.Outstanding() != 0 {
		t.Fatalf("%s: outstanding = %d", c.Policy.Name(), c.Outstanding())
	}
	if got := c.Collector.TTFT.Count(); got != want {
		t.Fatalf("%s: finished = %d, want %d", c.Policy.Name(), got, want)
	}
	for _, g := range c.Groups() {
		if err := g.Pool().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if g.Pool().LiveSequences() != 0 {
			t.Errorf("%s: leaked sequences", c.Policy.Name())
		}
	}
}

func TestVLLMDPServesUnderOverload(t *testing.T) {
	c := newCluster(t, 1, VLLMDP{})
	tr := overloadTrace(c, 4)
	c.Serve(tr, sim.FromSeconds(5000))
	checkHealthy(t, c, 4)
}

func TestVLLMPPSetupShape(t *testing.T) {
	c := newCluster(t, 4, VLLMPP())
	groups := c.Groups()
	if len(groups) != 2 {
		t.Fatalf("PP groups = %d", len(groups))
	}
	for _, g := range groups {
		if g.Stages() != 2 {
			t.Fatalf("stages = %d", g.Stages())
		}
		for _, in := range g.Instances() {
			if in.HoldsFullCopy() {
				t.Error("PP instance still holds full copy")
			}
		}
	}
	// Capacity per PP pair exceeds two DP instances'.
	dp := newCluster(t, 2, VLLMDP{})
	dpCap := dp.Groups()[0].CapacityTokens() + dp.Groups()[1].CapacityTokens()
	if groups[0].CapacityTokens() <= dpCap {
		t.Error("PP pair should have more KV capacity than 2 DP instances")
	}
}

func TestVLLMPPOddInstancesRejected(t *testing.T) {
	_, err := cluster.New(cluster.Config{
		Seed: 1, Model: model.Qwen25_14B(), GPU: gpu.A800(),
		Instances: 3, Policy: VLLMPP(),
	})
	if err == nil {
		t.Fatal("odd instance count accepted")
	}
}

func TestVLLMPPServes(t *testing.T) {
	c := newCluster(t, 2, VLLMPP())
	c.Serve(burstTrace(12, 0.2, 1024, 64), sim.FromSeconds(300))
	checkHealthy(t, c, 12)
}

// victims wraps a policy and records each request its HandlePressure
// finds as the group's victim, counting the ones the policy stalled (swap
// or migration) rather than recomputed.
type victims struct {
	cluster.Policy
	seen    []*request.Request
	stalled int
}

func (v *victims) HandlePressure(g *cluster.Group, need int) bool {
	r := g.Victim()
	ok := v.Policy.HandlePressure(g, need)
	if r != nil {
		v.seen = append(v.seen, r)
		if r.State().Stalled() {
			v.stalled++
		}
	}
	return ok
}

func TestInferCeptSwapsUnderOverload(t *testing.T) {
	p := NewInferCept()
	rec := &victims{Policy: p}
	c := newCluster(t, 1, rec)
	tr := overloadTrace(c, 4)
	c.Serve(tr, sim.FromSeconds(5000))
	checkHealthy(t, c, 4)
	if p.swapped != 0 {
		t.Errorf("%d swaps still in flight at the horizon", p.swapped)
	}
	if rec.stalled == 0 {
		t.Fatal("nothing was swapped out")
	}
	for _, r := range rec.seen {
		if r.SwapOutDone != 0 || r.SwapInFlight {
			t.Errorf("request %d carries swap state at the horizon", r.ID)
		}
	}
}

// Swapped requests must spend visible time stalled: their TPOT should
// exceed vLLM-DP's for the same overloaded workload (the Figure 13
// InferCept TPOT penalty).
func TestInferCeptTPOTPenalty(t *testing.T) {
	dp := newCluster(t, 1, VLLMDP{})
	trDP := overloadTrace(dp, 5)
	dp.Serve(trDP, sim.FromSeconds(5000))

	ic := newCluster(t, 1, NewInferCept())
	trIC := overloadTrace(ic, 5)
	ic.Serve(trIC, sim.FromSeconds(5000))

	if ic.Collector.TTFT.Count() != 5 || dp.Collector.TTFT.Count() != 5 {
		t.Fatalf("finished: ic=%d dp=%d", ic.Collector.TTFT.Count(), dp.Collector.TTFT.Count())
	}
	if ic.Collector.TPOT.Max() <= 0 {
		t.Error("InferCept TPOT missing")
	}
}

func TestLlumnixMigratesToSpareInstance(t *testing.T) {
	p := NewLlumnix()
	rec := &victims{Policy: p}
	c := newCluster(t, 2, rec)
	g0 := c.Groups()[0]
	capTokens := g0.CapacityTokens()
	// Three requests per instance overflow both pools mid-decode, so
	// victims migrate to whichever pool has room.
	tr := burstTrace(6, 0.02, capTokens/3, capTokens/8)
	c.Serve(tr, sim.FromSeconds(5000))
	checkHealthy(t, c, 6)
	if p.migrations != 0 {
		t.Errorf("%d migrations still in flight at the horizon", p.migrations)
	}
	if rec.stalled == 0 {
		t.Fatal("nothing migrated")
	}
	for _, r := range rec.seen {
		if r.MigrationInFlight {
			t.Errorf("request %d carries a migration mark at the horizon", r.ID)
		}
	}
}

// firstGroup routes every arrival to the lowest-ID candidate, loading one
// group while the others idle.
type firstGroup struct{}

func (firstGroup) Name() string                  { return "first" }
func (firstGroup) Key(c sched.Candidate) float64 { return float64(c.ID) }

// rebalances counts the migrations Llumnix's OnTick starts.
type rebalances struct {
	*Llumnix
	started int
}

func (p *rebalances) OnTick(c *cluster.Cluster) {
	before := p.migrations
	p.Llumnix.OnTick(c)
	p.started += p.migrations - before
}

func TestLlumnixRebalanceOnTick(t *testing.T) {
	p := &rebalances{Llumnix: NewLlumnix()}
	c, err := cluster.New(cluster.Config{
		Seed: 1, Model: model.Qwen25_14B(), GPU: gpu.A800(),
		Instances: 2, Policy: p,
		Router: firstGroup{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every request lands on group 0, which holds them all without memory
	// pressure, while group 1 idles: at the first tick the groups' demand
	// ratios differ by more than imbalanceGap.
	capTokens := c.Groups()[0].CapacityTokens()
	c.Serve(burstTrace(4, 0.01, capTokens/10, capTokens/40), sim.FromSeconds(5000))
	checkHealthy(t, c, 4)
	if p.started == 0 {
		t.Fatal("OnTick started no rebalancing migration")
	}
}

func TestAllBaselinesOnSharedBurst(t *testing.T) {
	// Every baseline must survive the same bursty workload; this is the
	// integration gate for the end-to-end experiments.
	trace := workload.Generate(7, 20*sim.Second, workload.BurstSchedule(2), workload.BurstGPTDataset())
	pols := []cluster.Policy{VLLMDP{}, VLLMPP(), NewInferCept(), NewLlumnix()}
	for _, pol := range pols {
		c := newCluster(t, 2, pol)
		c.Serve(trace, sim.FromSeconds(600))
		checkHealthy(t, c, len(trace.Requests))
	}
}
