package experiments

import (
	"testing"

	"kunserve/internal/baselines"
	"kunserve/internal/cluster"
	"kunserve/internal/runner"
)

// TestSharedTraceImmutable checks that one BuildTrace trace served by
// every system the simulator implements — the five matrix systems plus the
// disaggregated baseline — comes back byte-identical. A figure's cells
// share one trace, so if any engine, policy, or collector wrote through
// it, whichever cell executed first would leak state into every later
// cell: this is load-bearing for run-to-run determinism.
func TestSharedTraceImmutable(t *testing.T) {
	cfg := Quick().withDefaults()
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}

	before := tr.Fingerprint()
	set := runner.NewSet(cfg.Parallel)
	for _, s := range AllSystems() {
		sys := s
		set.Add(runner.Cell{
			Key:       string(sys),
			Cluster:   cfg.clusterConfig(tr),
			NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
			Trace:     tr,
			Horizon:   tr.Duration().Add(cfg.HorizonSlack),
		})
	}
	// The disaggregated baseline runs the same trace through the
	// prefill/decode role split — the sixth distinct serving path.
	set.Add(runner.Cell{
		Key:     "Disagg",
		Cluster: cfg.clusterConfig(tr),
		NewPolicy: func() cluster.Policy {
			return baselines.NewDisagg(1, cfg.Instances-1)
		},
		Trace:   tr,
		Horizon: tr.Duration().Add(cfg.HorizonSlack),
	})
	if _, err := set.Execute(); err != nil {
		t.Fatal(err)
	}

	if after := tr.Fingerprint(); after != before {
		t.Fatalf("shared trace mutated: fingerprint %#x -> %#x", before, after)
	}
}
