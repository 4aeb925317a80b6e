package baselines

import (
	"strings"
	"testing"

	"kunserve/internal/cluster"
	"kunserve/internal/cluster/engine"
	"kunserve/internal/gpu"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

func disaggCluster(t *testing.T, prefill, decode int, caching bool, kvBytes int64) (*cluster.Cluster, *Disagg) {
	t.Helper()
	pol := NewDisagg(prefill, decode)
	c, err := cluster.New(cluster.Config{
		Seed:             1,
		Model:            model.Qwen25_14B(),
		GPU:              gpu.A800(),
		Instances:        prefill + decode,
		Policy:           pol,
		PrefixCaching:    caching,
		KVProvisionBytes: kvBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, pol
}

func TestDisaggSetupRolesAndValidation(t *testing.T) {
	c, _ := disaggCluster(t, 1, 2, false, 0)
	groups := c.Groups()
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Role() != engine.RolePrefill {
		t.Errorf("group 0 role %v", groups[0].Role())
	}
	for _, g := range groups[1:] {
		if g.Role() != engine.RoleDecode {
			t.Errorf("group %d role %v", g.ID, g.Role())
		}
	}
	for _, bad := range []*Disagg{NewDisagg(0, 2), NewDisagg(2, 0), NewDisagg(2, 2)} {
		_, err := cluster.New(cluster.Config{
			Seed: 1, Model: model.Qwen25_14B(), GPU: gpu.A800(),
			Instances: 2, Policy: bad,
		})
		if err == nil {
			t.Errorf("split %dP:%dD over 2 instances accepted", bad.Prefill, bad.Decode)
		}
	}
}

// A prefill role on a policy without the handoff path is a configuration
// error the cluster rejects at setup.
func TestPrefillRoleRequiresHandoffPolicy(t *testing.T) {
	c := newCluster(t, 2, VLLMDP{})
	if err := c.Groups()[0].SetRole(engine.RolePrefill); err == nil {
		t.Fatal("prefill role accepted without a PrefillFinisher policy")
	}
	if err := c.Groups()[0].SetRole(engine.RoleDecode); err != nil {
		t.Fatalf("decode role rejected: %v", err)
	}
}

// End-to-end disaggregated serving: every request prefills on the prefill
// pool, hands its KV off over the fabric, decodes on the decode pool, and
// the per-stage waits (prefill queue, KV transfer, decode queue) land in
// the collector.
// stageCount is how many waits the collector observed in stage.
func stageCount(col *metrics.Collector, stage string) int {
	if d := col.StageWaits[stage]; d != nil {
		return d.Count()
	}
	return 0
}

// checkStageAccounting checks the stage-wait counts against the policy's
// counters after a run of n requests. Every prefill-queue entry is
// observed once at admission: each arrival, each decode victim rerouted
// to a prefill group, and each prefill-side recompute. Each completed
// handoff observed its pending wait and its transfer. Each finished
// request decoded after its last handoff, and no handoff is observed
// twice in the decode queue.
func checkStageAccounting(t *testing.T, c *cluster.Cluster, pol *Disagg, n int) {
	t.Helper()
	col, st := c.Collector, pol.Stats()
	prefillPreempts := 0
	for _, g := range c.Groups() {
		if g.Role() == engine.RolePrefill {
			prefillPreempts += g.Preemptions()
		}
	}
	if got, want := stageCount(col, metrics.StagePrefillQueue), n+st.DecodeRecomputes+prefillPreempts; got != want {
		t.Errorf("prefill_queue count %d, want %d requests + %d decode recomputes + %d prefill preemptions",
			got, n, st.DecodeRecomputes, prefillPreempts)
	}
	for _, stage := range []string{metrics.StageHandoffPending, metrics.StageKVTransfer} {
		if got := stageCount(col, stage); got != st.Handoffs {
			t.Errorf("%s count %d, want %d handoffs", stage, got, st.Handoffs)
		}
	}
	finished, decodeQueue := col.TTFT.Count(), stageCount(col, metrics.StageDecodeQueue)
	if finished > decodeQueue || decodeQueue > st.Handoffs {
		t.Errorf("decode_queue count %d outside [%d finished, %d handoffs]",
			decodeQueue, finished, st.Handoffs)
	}
}

func TestDisaggServesEndToEnd(t *testing.T) {
	c, pol := disaggCluster(t, 1, 1, false, 0)
	tr := burstTrace(10, 0.4, 512, 32)
	col := c.Serve(tr, sim.FromSeconds(120))
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", c.Outstanding())
	}
	if col.TTFT.Count() != 10 {
		t.Fatalf("finished = %d", col.TTFT.Count())
	}
	st := pol.Stats()
	if st.Handoffs != 10 {
		t.Errorf("handoffs = %d, want 10", st.Handoffs)
	}
	if st.TransferredBytes != st.FullKVBytes || st.CachedTokensReused != 0 {
		t.Errorf("caching off must transfer full KV: %+v", st)
	}
	for _, stage := range []string{metrics.StagePrefillQueue, metrics.StageHandoffPending,
		metrics.StageKVTransfer, metrics.StageDecodeQueue} {
		// Each request waits in each stage exactly once.
		d := col.StageWaits[stage]
		if d == nil || d.Count() != 10 {
			t.Errorf("stage %q observed %d times, want 10", stage, stageCount(col, stage))
			continue
		}
		// Queue/pending waits may legitimately be zero under light load;
		// wire time and decode waits cannot be.
		if stage == metrics.StageKVTransfer || stage == metrics.StageDecodeQueue {
			if d.Percentile(50) <= 0 {
				t.Errorf("stage %q P50 = %v", stage, d.Percentile(50))
			}
		}
	}
	for _, g := range c.Groups() {
		if err := g.Pool().CheckInvariants(); err != nil {
			t.Error(err)
		}
		if g.Pool().LiveSequences() != 0 {
			t.Errorf("group %d leaked sequences", g.ID)
		}
	}
}

// The acceptance gate for block-identity reuse: on a shared-prefix
// workload with prefix caching, handoffs after the first skip the blocks
// already cached on the decode side — transferred bytes stay strictly
// below the full KV bytes, and the gap is the reused prefix.
func TestDisaggHandoffReusesPrefixCachedBlocks(t *testing.T) {
	c, pol := disaggCluster(t, 1, 1, true, 0)
	tr := burstTrace(8, 1.0, 700, 16)
	for i := range tr.Requests {
		tr.Requests[i].Client = "agent"
		tr.Requests[i].SharedPrefix = 512
	}
	col := c.Serve(tr, sim.FromSeconds(120))
	if c.Outstanding() != 0 || col.TTFT.Count() != 8 {
		t.Fatalf("outstanding %d finished %d", c.Outstanding(), col.TTFT.Count())
	}
	st := pol.Stats()
	if st.Handoffs != 8 {
		t.Fatalf("handoffs = %d", st.Handoffs)
	}
	if st.TransferredBytes >= st.FullKVBytes {
		t.Fatalf("no transfer dedup: sent %d of %d full bytes", st.TransferredBytes, st.FullKVBytes)
	}
	if st.CachedTokensReused == 0 {
		t.Fatal("no prefix tokens reused on the decode side")
	}
	// 7 of 8 handoffs should reuse the 512-token chain (block-aligned
	// chain share: each reuses full blocks of the prefix).
	wantSaved := st.CachedTokensReused * c.Model.KVBytesPerToken()
	if st.FullKVBytes-st.TransferredBytes != wantSaved {
		t.Errorf("saved bytes %d != reused tokens' KV %d",
			st.FullKVBytes-st.TransferredBytes, wantSaved)
	}
}

// A decode-pool preemption cannot re-prefill in place: the victim reroutes
// to a prefill group, re-prefills, and hands off again — and the run still
// completes every request.
func TestDisaggDecodePressureReroutesToPrefill(t *testing.T) {
	// Starve the decode pool: tiny KV provisioning and outputs long
	// enough that concurrent decodes overflow mid-generation.
	c, pol := disaggCluster(t, 1, 1, false, 6<<30)
	var decodeCap int
	for _, g := range c.Groups() {
		if g.Role() == engine.RoleDecode {
			decodeCap = g.CapacityTokens()
		}
	}
	in := decodeCap * 2 / 5
	tr := burstTrace(3, 0.05, in, decodeCap/8)
	col := c.Serve(tr, sim.FromSeconds(4000))
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", c.Outstanding())
	}
	if col.TTFT.Count() != 3 {
		t.Fatalf("finished = %d", col.TTFT.Count())
	}
	st := pol.Stats()
	if st.DecodeRecomputes == 0 {
		t.Fatal("decode pool never hit pressure; tighten the workload")
	}
	if st.Handoffs <= 3 {
		t.Errorf("handoffs = %d, want re-handoffs after recompute", st.Handoffs)
	}
	checkStageAccounting(t, c, pol, 3)
	for _, g := range c.Groups() {
		if g.Pool().LiveSequences() != 0 {
			t.Errorf("group %d leaked sequences", g.ID)
		}
	}
}

// Handoffs that find the decode pool full wait on the pending list and
// complete once capacity frees, rather than erroring or deadlocking.
func TestDisaggPendingHandoffDrains(t *testing.T) {
	c, pol := disaggCluster(t, 1, 1, false, 6<<30)
	var decodeCap int
	for _, g := range c.Groups() {
		if g.Role() == engine.RoleDecode {
			decodeCap = g.CapacityTokens()
		}
	}
	// Each request fills ~60% of the decode pool: two can never coexist,
	// so at least one handoff must queue behind a running decode.
	in := decodeCap * 3 / 5
	tr := burstTrace(3, 0.05, in, 512)
	col := c.Serve(tr, sim.FromSeconds(4000))
	if c.Outstanding() != 0 || col.TTFT.Count() != 3 {
		t.Fatalf("outstanding %d finished %d", c.Outstanding(), col.TTFT.Count())
	}
	if pol.Stats().PendingStalls == 0 {
		t.Fatal("no handoff ever waited for decode capacity; tighten the workload")
	}
	// The wait for decode capacity is a measured stage, not a blind spot.
	if d := col.StageWaits[metrics.StageHandoffPending]; d == nil || d.Max() <= 0 {
		t.Fatal("handoff back-pressure left no handoff_pending observation")
	}
	checkStageAccounting(t, c, pol, 3)
}

func TestDisaggName(t *testing.T) {
	if got := NewDisagg(3, 1).Name(); !strings.Contains(got, "3P:1D") {
		t.Errorf("name = %q", got)
	}
}

// workload import is exercised via burstTrace (defined in baselines_test).
var _ = workload.Trace{}
