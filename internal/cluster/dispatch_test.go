package cluster

import (
	"reflect"
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

func TestClusterDemandTotalInvariant(t *testing.T) {
	c := testCluster(t, 2, recomputePolicy{})
	checkDemandInvariant(t, c, "fresh cluster")
	tr := smallTrace(16, 0.02, 1024, 48)
	for _, wr := range tr.Requests {
		if err := c.Dispatch(request.New(wr.ID, wr.Arrival, wr.InputLen, wr.OutputLen)); err != nil {
			t.Fatal(err)
		}
	}
	checkDemandInvariant(t, c, "after dispatch")
	// Mid-flight: queues partially drained, running sets populated.
	c.Sim.RunUntil(sim.FromSeconds(2))
	checkDemandInvariant(t, c, "mid-serve")
	c.Sim.RunUntil(sim.FromSeconds(300))
	checkDemandInvariant(t, c, "after serve")
	if c.DemandBytes() != 0 {
		t.Fatalf("idle cluster reports %d demand bytes", c.DemandBytes())
	}
}

// scanRouter hides a router's sched.Keyed method set, so the cluster
// dispatches through the full candidate scan instead of its index.
type scanRouter struct{ sched.Router }

// TestScanDispatchByteIdentical locks the tentpole contract at the cluster
// level: the incremental router index and the full candidate scan make the
// same pick for every request, so whole runs produce identical metrics.
func TestScanDispatchByteIdentical(t *testing.T) {
	for _, router := range []string{"least-loaded", "least-kv", "queue-depth"} {
		run := func(scan bool) []float64 {
			cfg := Config{
				Seed:      1,
				Model:     model.Qwen25_14B(),
				GPU:       gpu.A800(),
				Instances: 4,
				Policy:    recomputePolicy{},
				NewRouter: func(seed int64) sched.Router {
					r, err := sched.NewRouterByName(router, seed)
					if err != nil {
						t.Fatal(err)
					}
					if scan {
						return scanRouter{r}
					}
					return r
				},
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if scan != (c.index == nil) {
				t.Fatalf("router %s scan=%v: index wiring wrong", router, scan)
			}
			col := c.Serve(smallTrace(32, 0.05, 1024, 32), sim.FromSeconds(300))
			ttfts := make([]float64, 0, len(col.Records))
			for _, rec := range col.Records {
				ttfts = append(ttfts, rec.TTFT())
			}
			return ttfts
		}
		indexed, scanned := run(false), run(true)
		if !reflect.DeepEqual(indexed, scanned) {
			t.Errorf("router %s: indexed and scan dispatch diverged", router)
		}
	}
}
