package experiments

import (
	"slices"
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/arrival"
)

// TestFleetCellRoundCounts pins the engine's round and fast-decode counts
// on a small fleet-diurnal-shaped cell: eight instances under the scale
// ladder's sine-diurnal trace (four cycles, amplitude 0.5), with bounded
// metrics, served by vLLM (DP) and KunServe, with KV provisioned tight enough
// that the pools come under pressure. The pinned counts are the ones every
// round's single walk over the lane produced: the epoch lane must take
// exactly the tokens the walk took fast, in exactly as many rounds, group
// by group at the horizon. The walk's stop rule is waived when the pool
// has a block for every slot whose token needs block-level work, which
// raised vLLM (DP)'s fast counts (its rounds, and every output, stayed
// the same). Block crossings into counted blocks take the fast path in
// every round with the rule waived, which raised every group's fast count
// by exactly the crossings it moved there; the rounds stayed the same.
func TestFleetCellRoundCounts(t *testing.T) {
	const instances = 8
	dur := 40 * sim.Second
	proc, err := arrival.NewDiurnal(4.1224*instances, 0.5, dur/4, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.GenerateProcess(7, dur, proc, workload.BurstGPTDataset())
	want := map[System]struct{ fast, rounds []int }{
		SysVLLMDP: {
			fast:   []int{39269, 47470, 37117, 49918, 42320, 52538, 46649, 38643},
			rounds: []int{4298, 4004, 4403, 4063, 4415, 4056, 3686, 3320},
		},
		SysKunServe: {
			fast:   []int{22465, 19426, 11041, 9407, 7632, 9005, 9827, 8364},
			rounds: []int{2175, 1631, 1863, 1757, 2435, 1927, 2190, 1775},
		},
	}
	for sys, w := range want {
		res := runner.Run(runner.Cell{
			Key: string(sys),
			Cluster: cluster.Config{
				Seed:             7,
				Model:            model.Qwen25_14B(),
				GPU:              gpu.A800(),
				Instances:        instances,
				NetBandwidth:     200e9 / 8,
				KVProvisionBytes: 3e9,
				MetricsReservoir: runner.DefaultReservoir,
			},
			NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
			Trace:     tr,
			Horizon:   tr.Duration().Add(60 * sim.Second),
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", sys, res.Err)
		}
		var fast, rounds []int
		for _, g := range res.Cluster.Groups() {
			fast = append(fast, g.FastDecodes())
			rounds = append(rounds, g.RoundsRun())
		}
		if !slices.Equal(fast, w.fast) || !slices.Equal(rounds, w.rounds) {
			t.Errorf("%s: fast decodes %v, rounds %v per group; want %#v, %#v", sys, fast, rounds, w.fast, w.rounds)
		}
	}
}

// TestPressuredCellRoundCounts pins the engine's counters on Figure 2's
// cell set (vLLM (DP), InferCept and Llumnix at quick scale), whose pools
// come under pressure: in 15–23% of each group's rounds the pool
// holds fewer blocks than the lane has slots, so the walk's stop rule is
// live. Rounds and fast decodes are pinned at the counts the walk gave
// when every such round walked. Now a stop-rule round walks only when the
// pool does not cover its block crossings, so the walk rounds are exactly
// those uncovered ones, measured by counting them in that walk. The fast
// counts include the block crossings covered rounds take on the fast path.
func TestPressuredCellRoundCounts(t *testing.T) {
	cfg := Quick().withDefaults()
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	want := map[System]struct{ rounds, fast, walks []int }{
		SysVLLMDP:    {[]int{3038, 3191}, []int{77582, 92397}, []int{42, 52}},
		SysInferCept: {[]int{3038, 3368}, []int{82092, 89119}, []int{31, 33}},
		SysLlumnix:   {[]int{3146, 3143}, []int{78356, 85343}, []int{132, 100}},
	}
	for sys, w := range want {
		res := runner.Run(runner.Cell{
			Key:       string(sys),
			Cluster:   cfg.clusterConfig(tr),
			NewPolicy: func() cluster.Policy { return NewPolicy(sys) },
			Trace:     tr,
			Horizon:   tr.Duration().Add(cfg.HorizonSlack),
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", sys, res.Err)
		}
		var rounds, fast, walks []int
		for _, g := range res.Cluster.Groups() {
			rounds = append(rounds, g.RoundsRun())
			fast = append(fast, g.FastDecodes())
			walks = append(walks, g.WalkRounds())
		}
		if !slices.Equal(rounds, w.rounds) || !slices.Equal(fast, w.fast) || !slices.Equal(walks, w.walks) {
			t.Errorf("%s: rounds %v, fast decodes %v, walk rounds %v per group; want %v, %v, %v",
				sys, rounds, fast, walks, w.rounds, w.fast, w.walks)
		}
	}
}
