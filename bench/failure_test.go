package bench

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/experiments"
	"kunserve/internal/runner"
	"kunserve/internal/sim"
)

// setupFails is a policy whose Setup errors, so cluster.New fails.
type setupFails struct{ cluster.Policy }

func (setupFails) Setup(*cluster.Cluster) error { return errors.New("setup refused") }

// panicsOnTick panics at the first monitor tick, mid-Serve. Embedding the
// interface hides the baseline's TickQuiescent, so the monitor ticks.
type panicsOnTick struct{ cluster.Policy }

func (panicsOnTick) OnTick(*cluster.Cluster) { panic("tick exploded") }

// TestFailedCellsAreCountedAndReported: a cell whose policy Setup errors
// and one whose policy panics mid-Serve both fail by key, the pass still
// runs its healthy cell, and kbench's exit code is non-zero.
func TestFailedCellsAreCountedAndReported(t *testing.T) {
	p := tiny(mustWorkload(t, paperBurst))
	groups, err := p.groups(7)
	if err != nil {
		t.Fatal(err)
	}
	g := groups[0]
	cc := p.clusterConfig(7)
	dp := func() cluster.Policy { return experiments.NewPolicy(experiments.SysVLLMDP) }
	g.cells = []cell{
		{key: "healthy", system: "vllm-dp", newPolicy: dp, config: cc},
		{key: "setup-error", system: "vllm-dp", newPolicy: func() cluster.Policy { return setupFails{dp()} }, config: cc},
		{key: "serve-panic", system: "vllm-dp", newPolicy: func() cluster.Policy { return panicsOnTick{dp()} }, config: cc},
	}
	exec := func(params, int64, bool) passResult { return runGroups(p.Name, []group{g}, false) }
	reports, _ := run(runConfig{workloads: []params{p}, seed: 7, reps: 1, trace: 0}, exec, io.Discard)
	r := reports[0]
	if r.Attempted != 3 || r.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", r.Attempted, r.Failed)
	}
	if len(r.Failures) != 2 || !strings.HasPrefix(r.Failures[0], "setup-error: ") ||
		!strings.HasPrefix(r.Failures[1], "serve-panic: ") || !strings.Contains(r.Failures[1], "tick exploded") {
		t.Fatalf("failures %q", r.Failures)
	}
	if r.Metrics["metrics.finished"].Median == 0 {
		t.Error("the healthy cell's work was not counted")
	}
	var out bytes.Buffer
	if code := printReports(&out, reports, 0); code == 0 {
		t.Error("exit code 0 with failed cells")
	}
	if correct, failed, _ := lastLineMetrics(t, out.String()); correct || failed != 2 {
		t.Errorf("result line: correct %t failed %d", correct, failed)
	}
}

// TestCheckCell: conservation and the KV pool invariants hold on a served
// cell, and a summary that loses a request fails conservation.
func TestCheckCell(t *testing.T) {
	p := tiny(mustWorkload(t, prefixAgentic))
	gen, err := p.trace(7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.clusterConfig(7)
	cfg.Policy = experiments.NewPolicy(experiments.SysKunServe)
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Serve(tr, tr.Duration().Add(30*sim.Second))
	s := runner.Summarize(cl)
	if err := checkCell(cl, s, tr); err != nil {
		t.Fatal(err)
	}
	s.Finished--
	if err := checkCell(cl, s, tr); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("lost request not caught: %v", err)
	}
}
