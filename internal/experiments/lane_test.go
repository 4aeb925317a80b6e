package experiments

import (
	"testing"

	"kunserve/internal/baselines"
	"kunserve/internal/cluster"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// laneAudit wraps a policy so that every monitor tick, after the policy's
// own tick, audits each live group's lane. It forwards the prefill handoff
// so role-split policies still serve; lacking TickQuiescent, it keeps the
// monitor on its dense cadence, so every tick is audited.
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

// TestLaneMatchesRequests pins the engine's lane to ground truth under the
// churn that exercises every write-back and slot transition: all five §5
// systems plus a disaggregated split, overloaded, so preemption, swap,
// migration, drop/restore transplants and KV handoffs all run. At every
// monitor tick each group forces a write-back and checks each slot
// against its request and Seq (engine.Engine.CheckLane): context length,
// tokens left, tail room, and the Seq's committed token count.
func TestLaneMatchesRequests(t *testing.T) {
	cfg := Quick()
	cfg.Instances = 4
	cfg.Duration = 48 * sim.Second
	cfg.HorizonSlack = 10 * sim.Second
	cfg.LoadMultiplier = 3
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		name   string
		pol    cluster.Policy
		router string
	}
	var cells []cell
	for _, s := range AllSystems() {
		cells = append(cells, cell{string(s), NewPolicy(s), cfg.Router})
	}
	cells = append(cells, cell{"Disagg (2P:2D)", baselines.NewDisagg(2, 2), "queue-depth"})
	for _, c := range cells {
		ticks, hot := 0, 0
		run := cfg
		run.Router = c.router
		if _, err := run.RunPolicy(laneAudit{c.pol, t, &ticks, &hot}, tr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ticks == 0 || hot == 0 {
			t.Errorf("%s: %d ticks audited %d hot slots; the audit never bit", c.name, ticks, hot)
		}
		t.Logf("%s: %d ticks, %d hot slots checked", c.name, ticks, hot)
	}
}
