package cluster

import (
	"reflect"
	"testing"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/sim"
)

// nonQuiescentPolicy overrides TickQuiescent with an unconditional false:
// the conservative stance a time-dependent policy must take.
type nonQuiescentPolicy struct{ recomputePolicy }

func (nonQuiescentPolicy) TickQuiescent(*Cluster) bool { return false }

func monitorCluster(t *testing.T, pol Policy) *Cluster {
	t.Helper()
	c, err := New(Config{
		Seed:      1,
		Model:     model.Qwen25_14B(),
		GPU:       gpu.A800(),
		Instances: 1,
		Policy:    pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAdaptiveMonitorSkipsIdleTicks drives a trace whose requests finish
// long before the horizon: once the world drains, the only pending events
// are monitor ticks, so a quiescent policy lets the monitor leap straight
// to the horizon instead of firing every interval. The demand series must
// still be identical to the dense run — skipped ticks backfill the frozen
// value — and the skip counter proves the adaptive path actually engaged.
// The dense oracle is the same recompute policy reporting non-quiescence,
// which keeps the monitor on its fixed cadence.
func TestAdaptiveMonitorSkipsIdleTicks(t *testing.T) {
	horizon := sim.FromSeconds(300)
	tr := smallTrace(5, 0.2, 512, 16)

	adaptive := monitorCluster(t, recomputePolicy{})
	colA := adaptive.Serve(tr, horizon)

	dense := monitorCluster(t, nonQuiescentPolicy{})
	colD := dense.Serve(tr, horizon)

	if adaptive.MonitorSkipped() == 0 {
		t.Fatal("adaptive monitor never skipped a tick across a ~300s idle tail")
	}
	if dense.MonitorSkipped() != 0 {
		t.Fatalf("dense monitor skipped %d ticks", dense.MonitorSkipped())
	}
	if !reflect.DeepEqual(colA.KVDemand.Values(), colD.KVDemand.Values()) {
		t.Fatalf("adaptive demand series differs from dense: %d vs %d samples",
			len(colA.KVDemand.Values()), len(colD.KVDemand.Values()))
	}
	if !reflect.DeepEqual(colA.Records, colD.Records) {
		t.Fatal("adaptive run produced different request records than dense")
	}
}

// TestNonQuiescentPolicyKeepsDenseCadence verifies the conservative path: a
// policy reporting non-quiescence (time-dependent OnTick) never has ticks
// skipped.
func TestNonQuiescentPolicyKeepsDenseCadence(t *testing.T) {
	c := monitorCluster(t, nonQuiescentPolicy{})
	c.Serve(smallTrace(3, 0.2, 512, 16), sim.FromSeconds(120))
	if n := c.MonitorSkipped(); n != 0 {
		t.Fatalf("non-quiescent policy had %d ticks skipped", n)
	}
}
