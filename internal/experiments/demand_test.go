package experiments

import (
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// walkDemand recomputes a group's demand the way the engine originally
// did — a full walk over running and waiting — through public accessors.
func walkDemand(g *cluster.Group) int {
	d := 0
	for _, r := range g.Running() {
		c := r.PrefillTarget()
		if r.Seq != nil && r.Seq.Tokens() > c {
			c = r.Seq.Tokens()
		}
		d += c
	}
	g.Queue().Each(func(r *request.Request) {
		d += r.PrefillTarget()
	})
	return d
}

// DemandTokens is maintained incrementally (least-loaded dispatch reads it
// per arrival per group; a walk there is quadratic in fleet size). Any
// queue/running mutation path that misses its delta would silently skew
// routing, so pin the counter to the ground-truth walk after overloaded
// runs of every system — preemption, swap, migration, drops and restores
// all exercise their own mutation paths.
func TestDemandAccountingInvariant(t *testing.T) {
	cfg := Quick()
	cfg.Duration = 48 * sim.Second
	cfg.HorizonSlack = 10 * sim.Second
	cfg.LoadMultiplier = 3 // overload: leave queues populated at horizon
	tr, err := cfg.BuildTrace()
	if err != nil {
		t.Fatal(err)
	}
	loaded := false
	for _, sys := range AllSystems() {
		cl, err := cfg.Run(sys, tr)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		for _, g := range cl.Groups() {
			if g.Closed() {
				continue
			}
			want := walkDemand(g)
			if got := g.DemandTokens(); got != want {
				t.Errorf("%s group %d: incremental demand %d, walk %d",
					sys, g.ID, got, want)
			}
			if g.DemandTokens() > 0 {
				loaded = true
			}
		}
	}
	if !loaded {
		t.Error("every group ended idle; overload too weak for the invariant to bite")
	}
}
