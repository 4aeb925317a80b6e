package experiments

import (
	"fmt"
	"testing"

	"kunserve/internal/baselines"
	"kunserve/internal/cluster"
	"kunserve/internal/obs"
	"kunserve/internal/request"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// laneAudit wraps a policy so that every monitor tick, after the policy's
// own tick, audits each live group's lane. It forwards the prefill handoff
// so role-split policies still serve.
type laneAudit struct {
	cluster.Policy
	t          *testing.T
	ticks, hot *int
}

func (a laneAudit) OnTick(c *cluster.Cluster) {
	a.Policy.OnTick(c)
	*a.ticks++
	c.EachGroup(func(g *cluster.Group) {
		n, err := g.CheckLane()
		if err != nil {
			a.t.Errorf("%s tick %d: %v", a.Name(), *a.ticks, err)
		}
		*a.hot += n
	})
}

func (a laneAudit) HandoffPrefill(g *cluster.Group, r *request.Request) bool {
	return a.Policy.(cluster.PrefillFinisher).HandoffPrefill(g, r)
}

// overloadCell is one system of the overload setup: a policy constructor
// (each run needs a fresh policy) and the router it serves under.
type overloadCell struct {
	name   string
	pol    func() cluster.Policy
	router string
}

// overloadSetup is four instances at 3× overload: all five §5 systems
// plus a disaggregated 2P:2D split, so preemption, swap, migration,
// drop/restore transplants and KV handoffs all run.
func overloadSetup(t *testing.T) (Config, *workload.Trace, []overloadCell) {
	t.Helper()
	cfg := Quick()
	cfg.Instances = 4
	cfg.Duration = 48 * sim.Second
	cfg.HorizonSlack = 10 * sim.Second
	cfg.LoadMultiplier = 3
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	var cells []overloadCell
	for _, s := range AllSystems() {
		cells = append(cells, overloadCell{string(s), func() cluster.Policy { return NewPolicy(s) }, cfg.Router})
	}
	cells = append(cells, overloadCell{"Disagg (2P:2D)",
		func() cluster.Policy { return baselines.NewDisagg(2, 2) }, "queue-depth"})
	return cfg, tr, cells
}

// TestLaneMatchesRequests pins the engine's lane to ground truth under the
// churn that exercises every write-back and slot transition: the overload
// setup, where preemption, swap, migration, drop/restore transplants and
// KV handoffs all run. At every monitor tick each group forces a
// write-back and checks each slot against its request and Seq
// (engine.Engine.CheckLane): context length, tokens left, tail room, and
// the Seq's committed token count.
func TestLaneMatchesRequests(t *testing.T) {
	cfg, tr, cells := overloadSetup(t)
	for _, c := range cells {
		ticks, hot := 0, 0
		pol := c.pol()
		run := cfg
		run.Router = c.router
		if _, err := run.RunPolicy(laneAudit{pol, t, &ticks, &hot}, tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ticks == 0 || hot == 0 {
			t.Errorf("%s: %d ticks audited %d hot slots; the audit never bit", c.name, ticks, hot)
		}
		t.Logf("%s: %d ticks, %d hot slots checked", c.name, ticks, hot)
	}
}

// discard is a tracer that drops every event.
type discard struct{}

func (discard) Emit(obs.Event) {}

// TestTracedMatchesUntraced is the fast decode path's differential gate.
// Tracing puts every decode token on the engine's item path, so serving
// the overload setup traced (into a discarding tracer) and untraced must
// give identical summaries, per-request latencies included. It also pins
// the FastDecodes getters, read from the groups alive at the horizon:
// nonzero untraced on the systems that end with single-stage groups, zero
// when traced, and zero on the always-pipelined vLLM (PP), which is the
// in-setup control.
func TestTracedMatchesUntraced(t *testing.T) {
	cfg, tr, cells := overloadSetup(t)
	serve := func(c overloadCell, tracer obs.Tracer) (runner.Summary, int) {
		run := cfg
		run.Router = c.router
		run = run.withDefaults()
		cc := run.clusterConfig(tr)
		cc.Tracer = tracer
		res := runner.Run(runner.Cell{
			Key:       c.name,
			Cluster:   cc,
			NewPolicy: c.pol,
			Trace:     tr,
			Horizon:   tr.Duration().Add(run.HorizonSlack),
		})
		if res.Err != nil {
			t.Fatalf("%s (traced %v): %v", c.name, tracer != nil, res.Err)
		}
		fast := 0
		for _, g := range res.Cluster.Groups() {
			fast += g.FastDecodes()
		}
		return runner.Summarize(res.Cluster), fast
	}
	for _, c := range cells {
		plain, fast := serve(c, nil)
		traced, tracedFast := serve(c, discard{})
		if a, b := fmt.Sprintf("%+v", plain), fmt.Sprintf("%+v", traced); a != b {
			t.Errorf("%s: untraced and traced summaries differ:\n%s\n%s", c.name, a, b)
		}
		if tracedFast != 0 {
			t.Errorf("%s: %d fast decodes while traced", c.name, tracedFast)
		}
		switch c.name {
		case string(SysVLLMPP):
			if fast != 0 {
				t.Errorf("%s: %d fast decodes in pipelined groups", c.name, fast)
			}
		case string(SysKunServe):
			// Its groups end merged and pipelined; the dissolved
			// single-stage groups took their counts with them.
		default:
			if fast == 0 {
				t.Errorf("%s: no fast decodes untraced", c.name)
			}
		}
		t.Logf("%s: %d fast decodes untraced, %d finished", c.name, fast, plain.Finished)
	}
}
