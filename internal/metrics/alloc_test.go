//go:build !race

package metrics

import (
	"testing"

	"kunserve/internal/sim"
)

// finishRecord is a request that finished with several output tokens, so
// Finish feeds both TTFT and TPOT.
var finishRecord = RequestRecord{ID: 1, FirstToken: sim.FromSeconds(0.5),
	Completed: sim.FromSeconds(2), OutputTokens: 8}

// An exact collector sized by Reserve records each finish in place:
// Records, TTFT and TPOT never regrow.
func TestReservedFinishAllocatesNothing(t *testing.T) {
	const runs = 200
	c := NewCollector(sim.Second, nil)
	c.Reserve(runs + 1) // AllocsPerRun makes one extra warm-up call
	if n := testing.AllocsPerRun(runs, func() { c.Finish(finishRecord) }); n != 0 {
		t.Fatalf("Finish after Reserve allocates %v objects", n)
	}
	if len(c.Records) != runs+1 || c.TTFT.Count() != runs+1 || c.TPOT.Count() != runs+1 {
		t.Fatalf("records %d, TTFT %d, TPOT %d, want %d each",
			len(c.Records), c.TTFT.Count(), c.TPOT.Count(), runs+1)
	}
}

func BenchmarkCollectorFinish(b *testing.B) {
	c := NewCollector(sim.Second, nil)
	c.Reserve(b.N + 1)
	c.Finish(finishRecord)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.Finish(finishRecord)
	}
}
