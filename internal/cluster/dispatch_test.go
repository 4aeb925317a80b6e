package cluster

import (
	"fmt"
	"testing"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/request"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
)

// checkDemandInvariant pins the incrementally maintained demand total to
// the walk over live groups (the oracle DemandBytes used before it became
// O(1)).
func checkDemandInvariant(t *testing.T, c *Cluster, when string) {
	t.Helper()
	want := c.demandTokensWalk() * c.Model.KVBytesPerToken()
	if got := c.DemandBytes(); got != want {
		t.Fatalf("%s: DemandBytes = %d, walk says %d", when, got, want)
	}
}

// checkDispatchIndex fails the test when the dispatch index disagrees with
// the active groups' current keys.
func checkDispatchIndex(t *testing.T, c *Cluster, when string) {
	t.Helper()
	if err := c.CheckDispatchIndex(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestClusterDemandTotalInvariant pins the incremental demand total and
// the dispatch index to their ground truths after every dispatch, every
// simulation step of a serve, and a pool resize, under both routers.
func TestClusterDemandTotalInvariant(t *testing.T) {
	for _, router := range []sched.Router{nil, sched.NewQueueDepth()} {
		c, err := New(Config{
			Seed:      1,
			Model:     model.Qwen25_14B(),
			GPU:       gpu.A800(),
			Instances: 2,
			Policy:    recomputePolicy{},
			Router:    router,
		})
		if err != nil {
			t.Fatal(err)
		}
		name := c.router.Name()
		check := func(when string) {
			t.Helper()
			checkDemandInvariant(t, c, name+" "+when)
			checkDispatchIndex(t, c, name+" "+when)
		}
		check("fresh cluster")
		tr := smallTrace(16, 0.02, 1024, 48)
		for _, wr := range tr.Requests {
			if err := c.Dispatch(request.New(wr.ID, wr.Arrival, wr.InputLen, wr.OutputLen)); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("after dispatching request %d", wr.ID))
		}
		// A resize of a loaded group changes only its capacity, which
		// least-loaded keys on.
		c.Groups()[0].Pool().AddBlocks(64)
		check("after a pool resize")
		// Mid-flight: queues partially drained, running sets populated.
		for c.Sim.Now().Before(sim.FromSeconds(2)) && c.Sim.Step() {
			check(fmt.Sprintf("at %v", c.Sim.Now()))
		}
		c.Sim.RunUntil(sim.FromSeconds(300))
		check("after serve")
		if c.DemandBytes() != 0 {
			t.Fatalf("%s: idle cluster reports %d demand bytes", name, c.DemandBytes())
		}
	}
}
