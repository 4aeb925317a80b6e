package runner

import (
	"reflect"
	"strings"
	"testing"

	"kunserve/internal/baselines"
	"kunserve/internal/cluster"
	"kunserve/internal/gpu"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/sched"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

func testTrace() *workload.Trace { return seededTrace(7) }

func seededTrace(seed int64) *workload.Trace {
	return workload.Generate(seed, 16*sim.Second, workload.SteadySchedule(2), workload.BurstGPTDataset())
}

func testCell(key string, seed int64, tr *workload.Trace) Cell {
	return Cell{
		Key: key,
		Cluster: cluster.Config{
			Seed:             seed,
			Model:            model.Qwen25_14B(),
			GPU:              gpu.A800(),
			Instances:        2,
			KVProvisionBytes: 8 << 30,
		},
		NewPolicy: func() cluster.Policy { return baselines.VLLMDP{} },
		Trace:     tr,
		Horizon:   tr.Duration().Add(30 * sim.Second),
	}
}

func summaries(results []Result) []Summary {
	out := make([]Summary, len(results))
	for i, r := range results {
		out[i] = r.Summary
	}
	return out
}

// The determinism guarantee: a run set executed across many workers is
// bit-identical to sequential execution, cell for cell.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	build := func(parallel int) *Set {
		s := NewSet(parallel)
		for i, seed := range []int64{1, 2, 3, 4, 5, 6} {
			s.Add(testCell(strings.Repeat("c", i+1), seed, seededTrace(seed)))
		}
		return s
	}
	seq, err := build(1).Execute()
	if err != nil {
		t.Fatal(err)
	}
	par, err := build(8).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 6 || len(par) != 6 {
		t.Fatalf("results %d/%d", len(seq), len(par))
	}
	if !reflect.DeepEqual(summaries(seq), summaries(par)) {
		t.Error("parallel summaries differ from sequential")
	}
	for i, r := range seq {
		if r.Summary.Finished == 0 {
			t.Errorf("cell %d finished nothing", i)
		}
		if r.Summary.TTFTP50 > r.Summary.TTFTP99 {
			t.Errorf("cell %d: P50 %.4f > P99 %.4f", i, r.Summary.TTFTP50, r.Summary.TTFTP99)
		}
	}
	// Different seeds must actually produce different worlds, or the
	// equality above proves nothing.
	if reflect.DeepEqual(seq[0].Summary.TTFTs, seq[1].Summary.TTFTs) {
		t.Error("different seeds produced identical runs")
	}
}

// Results come back in submission order with per-cell errors kept in place
// and aggregated into the joined error.
func TestExecuteErrorAggregation(t *testing.T) {
	tr := testTrace()
	set := NewSet(4)
	set.Add(testCell("good-1", 1, tr))
	bad := testCell("bad", 2, tr)
	bad.NewPolicy = nil
	bad.Cluster.Policy = nil // cluster.New rejects a nil policy
	set.Add(bad)
	set.Add(testCell("good-2", 3, tr))
	if set.Len() != 3 {
		t.Fatalf("len = %d", set.Len())
	}
	results, err := set.Execute()
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("joined error %v does not name the failing cell", err)
	}
	wantKeys := []string{"good-1", "bad", "good-2"}
	for i, r := range results {
		if r.Key != wantKeys[i] {
			t.Errorf("result %d key %q, want %q", i, r.Key, wantKeys[i])
		}
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("good cells reported errors")
	}
	if results[1].Err == nil || results[1].Cluster != nil {
		t.Error("bad cell: want error and nil cluster")
	}
	if results[0].Summary.Finished == 0 || results[2].Summary.Finished == 0 {
		t.Error("good cells did not run")
	}
}

// vanishPolicy dissolves every group at its first idle monitor tick, so
// requests arriving afterwards have no live group to dispatch to.
type vanishPolicy struct {
	cluster.BasePolicy
	done bool
}

func (*vanishPolicy) Name() string                            { return "vanish" }
func (*vanishPolicy) Setup(c *cluster.Cluster) error          { return cluster.SetupDP(c) }
func (*vanishPolicy) HandlePressure(*cluster.Group, int) bool { return false }

func (p *vanishPolicy) OnTick(c *cluster.Cluster) {
	if p.done {
		return
	}
	for _, g := range c.Groups() {
		if !g.Executing() {
			// An idle group drains at once, so Regroup dissolves it
			// before returning.
			_ = c.Regroup([]*cluster.Group{g}, nil, nil)
		}
	}
	p.done = len(c.Groups()) == 0
}

// A run whose dispatcher finds no live group degrades to a per-cell error
// (aggregated by Execute) instead of panicking the whole set.
func TestDispatchFailureSurfacesAsCellError(t *testing.T) {
	// Arrivals start after the first monitor tick (1s) has dissolved the
	// groups.
	tr := &workload.Trace{Name: "late"}
	for i := 0; i < 3; i++ {
		tr.Requests = append(tr.Requests, workload.Request{
			ID: i, Arrival: sim.FromSeconds(2 + float64(i)), InputLen: 128, OutputLen: 8,
		})
	}
	set := NewSet(2)
	good := testCell("good", 1, testTrace())
	set.Add(good)
	bad := testCell("no-groups", 2, tr)
	bad.NewPolicy = func() cluster.Policy { return &vanishPolicy{} }
	bad.Trace = tr
	bad.Horizon = sim.FromSeconds(10)
	set.Add(bad)
	results, err := set.Execute()
	if err == nil || !strings.Contains(err.Error(), `"no-groups"`) {
		t.Fatalf("joined error %v does not name the sick cell", err)
	}
	if results[0].Err != nil {
		t.Errorf("healthy cell errored: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "undispatchable") {
		t.Errorf("cell error = %v, want undispatchable requests", results[1].Err)
	}
}

// Panics inside the simulated world surface as cell errors, not process
// crashes, so one bad cell cannot take down a whole sweep.
func TestRunRecoversPanic(t *testing.T) {
	c := testCell("nil-trace", 1, testTrace())
	c.Trace = nil // Serve dereferences the trace: panics
	res := Run(c)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic", res.Err)
	}
	if res.Cluster != nil {
		t.Error("cluster should be nil after panic")
	}
}

// A declared SLO class that finished nothing must still appear in the
// per-class breakdown with zero attainment and goodput — total starvation
// is the headline failure a discipline comparison exists to expose.
func TestClassBreakdownIncludesStarvedClasses(t *testing.T) {
	col := metrics.NewCollector(sim.Second, map[string]metrics.SLOTarget{
		"interactive": {TTFT: 1},
		"batch":       {TTFT: 8},
	})
	col.Finish(metrics.RequestRecord{
		ID: 1, Arrival: 0, FirstToken: sim.FromSeconds(0.5),
		Completed: sim.FromSeconds(1), OutputTokens: 2, Class: "interactive",
	})
	col.EmitTokens(sim.FromSeconds(1), 2)
	targets := sched.ClassTargets{
		"interactive": {TTFT: 1},
		"batch":       {TTFT: 8},
	}
	rows := classBreakdown(col, targets, 10)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want starved class included", len(rows))
	}
	if rows[0].Class != "batch" || rows[1].Class != "interactive" {
		t.Fatalf("order = %v, %v", rows[0].Class, rows[1].Class)
	}
	starved := rows[0]
	if starved.Finished != 0 || starved.Attainment != 0 || starved.Goodput != 0 {
		t.Errorf("starved class = %+v, want zeros", starved)
	}
	if starved.TTFTTarget != 8 {
		t.Errorf("starved class target %v", starved.TTFTTarget)
	}
	served := rows[1]
	if served.Finished != 1 || served.Attainment != 1 || served.Goodput != 0.1 {
		t.Errorf("served class = %+v", served)
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(42, "rep=1")
	if a != DeriveSeed(42, "rep=1") {
		t.Error("not stable")
	}
	if a == DeriveSeed(42, "rep=2") {
		t.Error("keys collide")
	}
	if a == DeriveSeed(43, "rep=1") {
		t.Error("bases collide")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(0, strings.Repeat("x", i%7)+string(rune('a'+i%26)))
		if s <= 0 {
			t.Fatalf("seed %d not positive", s)
		}
		seen[s] = true
	}
	if len(seen) < 100 {
		t.Errorf("only %d distinct seeds", len(seen))
	}
}

// Bounded-memory collectors retain no records; classBreakdown reads the
// attainment counters the collector keeps per finish, so attainment stays
// exact with no records to replay.
func TestClassBreakdownBounded(t *testing.T) {
	col := metrics.NewCollector(sim.Second, map[string]metrics.SLOTarget{
		"interactive": {TTFT: 1, TBT: 0.1},
	})
	col.Bound(8, 42)
	// One request attains both targets (TTFT 0.5 s, TPOT 50 ms)...
	col.Finish(metrics.RequestRecord{
		ID: 1, Arrival: 0, FirstToken: sim.FromSeconds(0.5),
		Completed: sim.FromSeconds(0.55), OutputTokens: 2, Class: "interactive",
	})
	// ...one misses TTFT (2 s > 1 s).
	col.Finish(metrics.RequestRecord{
		ID: 2, Arrival: 0, FirstToken: sim.FromSeconds(2),
		Completed: sim.FromSeconds(2.05), OutputTokens: 2, Class: "interactive",
	})
	col.EmitTokens(sim.FromSeconds(1), 4)
	if len(col.Records) != 0 {
		t.Fatalf("bounded collector retained %d records", len(col.Records))
	}
	targets := sched.ClassTargets{"interactive": {TTFT: 1, TBT: 0.1}}
	rows := classBreakdown(col, targets, 10)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	row := rows[0]
	if row.Finished != 2 {
		t.Errorf("Finished = %d, want 2", row.Finished)
	}
	if row.Attainment != 0.5 {
		t.Errorf("Attainment = %v, want 0.5 (from incremental counters)", row.Attainment)
	}
	if row.Goodput != 0.1 {
		t.Errorf("Goodput = %v, want 0.1", row.Goodput)
	}
	if row.TTFTP99 != 2 {
		t.Errorf("TTFTP99 = %v, want 2", row.TTFTP99)
	}
}
