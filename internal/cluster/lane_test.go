package cluster

import (
	"testing"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// A steady decode round — collect, form, reserve, launch and finish over
// hot lane slots, then the next round's launch — allocates nothing.
func TestSteadyDecodeRoundAllocatesNothing(t *testing.T) {
	c, err := New(Config{
		Seed:      1,
		Model:     model.Qwen25_14B(),
		GPU:       gpu.A800(),
		Instances: 1,
		Policy:    recomputePolicy{},
		// Blocks far larger than the measured rounds' growth keep every
		// tail inside its block, and a window longer than the run keeps
		// the token series from growing, so only the round is measured.
		BlockTokens:   4096,
		MetricsWindow: 10000 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := c.Dispatch(request.New(i, 0, 256, 100000)); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 20; step++ {
		c.Sim.Step()
	}
	if hot, err := c.Groups()[0].CheckLane(); err != nil || hot != n {
		t.Fatalf("before measuring: %d hot slots (want %d), err %v", hot, n, err)
	}
	if avg := testing.AllocsPerRun(100, func() { c.Sim.Step() }); avg != 0 {
		t.Fatalf("a steady decode round allocates %.2f times", avg)
	}
}
