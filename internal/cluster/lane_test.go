package cluster

import (
	"testing"

	"kunserve/internal/core/lookahead"
	"kunserve/internal/costmodel"
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

// formerPolicy is the vLLM (PP) shape with a chosen microbatch former.
type formerPolicy struct {
	ppSetupPolicy
	former Former
}

func (p formerPolicy) Former() Former { return p.former }

// A steady pipelined decode round — the same round plus microbatch
// formation and the stage-to-stage hand-offs — takes its decodes on the
// fast path and allocates nothing under either former: the formers cut
// the round's decode sequence by count, and microbatches are formed into
// the engine's own scratch.
func TestSteadyPipelinedRoundAllocatesNothing(t *testing.T) {
	cm, err := costmodel.FitFromTimer(gpu.NewTimer(gpu.A800(), model.Qwen25_14B(), 1))
	if err != nil {
		t.Fatal(err)
	}
	formers := map[string]Former{
		"token-count": TokenCountFormer{},
		"lookahead":   &lookahead.Former{Model: cm},
	}
	for name, f := range formers {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{
				Seed:          1,
				Model:         model.Qwen25_14B(),
				GPU:           gpu.A800(),
				Instances:     2,
				Policy:        formerPolicy{former: f},
				BlockTokens:   4096,
				MetricsWindow: 10000 * sim.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			g := c.Groups()[0]
			if len(c.Groups()) != 1 || g.Pipeline().Stages() != 2 {
				t.Fatalf("want one two-stage group, got %d groups", len(c.Groups()))
			}
			const n = 8
			for i := 0; i < n; i++ {
				if err := c.Dispatch(request.New(i, 0, 256, 100000)); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 100; step++ {
				c.Sim.Step()
			}
			if hot, err := g.CheckLane(); err != nil || hot != n {
				t.Fatalf("before measuring: %d hot slots (want %d), err %v", hot, n, err)
			}
			// One measured run of many steps: AllocsPerRun truncates an
			// average below one to zero.
			const steps = 500
			fast := g.FastDecodes()
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < steps; i++ {
					c.Sim.Step()
				}
			})
			if allocs != 0 {
				t.Fatalf("%d steady pipelined steps allocate %.0f times", steps, allocs)
			}
			if g.FastDecodes() == fast {
				t.Fatal("the steady pipelined rounds took no fast decodes")
			}
		})
	}
}
