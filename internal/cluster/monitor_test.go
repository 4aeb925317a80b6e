package cluster

import (
	"testing"

	"kunserve/internal/gpu"
	"kunserve/internal/metrics"
	"kunserve/internal/model"
	"kunserve/internal/sim"
)

// tickRecorder is recomputePolicy recording the instant and cluster demand
// of every monitor tick.
type tickRecorder struct {
	recomputePolicy
	at     []sim.Time
	demand []int64
}

func (p *tickRecorder) OnTick(c *Cluster) {
	p.at = append(p.at, c.Sim.Now())
	p.demand = append(p.demand, c.DemandBytes())
}

const (
	drainInterval = sim.Second
	drainTicks    = 300
)

// serveDrainedTrace serves five short requests on one instance up to a
// horizon of drainTicks monitor intervals, with the metrics window equal to
// the interval, and checks that every request finishes within the first
// tenth of the horizon, so the monitor runs over a long idle tail.
func serveDrainedTrace(t *testing.T) (*tickRecorder, *metrics.Collector) {
	t.Helper()
	horizon := sim.Time(0).Add(drainTicks * drainInterval)
	pol := &tickRecorder{}
	c, err := New(Config{
		Seed:            1,
		Model:           model.Qwen25_14B(),
		GPU:             gpu.A800(),
		Instances:       1,
		Policy:          pol,
		MonitorInterval: drainInterval,
		MetricsWindow:   drainInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := c.Serve(smallTrace(5, 0.2, 2048, 256), horizon)

	if len(col.Records) != 5 {
		t.Fatalf("%d requests finished, want 5", len(col.Records))
	}
	for _, r := range col.Records {
		if !r.Completed.Before(horizon / 10) {
			t.Fatalf("request %d completed at %v; the trace must drain early", r.ID, r.Completed)
		}
	}
	return pol, col
}

// TestNonQuiescentPolicyKeepsDenseCadence checks that a policy acting on
// every tick is called at every MonitorInterval grid point up to and
// including the horizon, the idle tail after the trace drains included.
func TestNonQuiescentPolicyKeepsDenseCadence(t *testing.T) {
	pol, _ := serveDrainedTrace(t)
	if len(pol.at) != drainTicks {
		t.Fatalf("%d monitor ticks up to the horizon, want %d", len(pol.at), drainTicks)
	}
	for k, at := range pol.at {
		if want := sim.Time(0).Add(sim.Duration(k+1) * drainInterval); at != want {
			t.Fatalf("tick %d at %v, want %v", k, at, want)
		}
	}
}

// TestMonitorDenseCadence checks that each monitor tick leaves exactly one
// KVDemand sample: with the metrics window equal to the interval, bin k
// holds the demand the tick at k·interval read, and no bin is skipped or
// doubled.
func TestMonitorDenseCadence(t *testing.T) {
	pol, col := serveDrainedTrace(t)
	vals := col.KVDemand.Values()
	if len(vals) != drainTicks+1 {
		t.Fatalf("KVDemand has %d bins, want %d", len(vals), drainTicks+1)
	}
	if len(pol.demand) != drainTicks {
		t.Fatalf("%d monitor ticks up to the horizon, want %d", len(pol.demand), drainTicks)
	}
	if vals[0] != 0 {
		t.Fatalf("bin 0 holds %v; no tick lands before the first interval", vals[0])
	}
	busy := 0
	for k, d := range pol.demand {
		if vals[k+1] != float64(d) {
			t.Fatalf("bin %d holds %v, want the tick's demand %d", k+1, vals[k+1], d)
		}
		if d > 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no tick saw demand; the trace must be live at the first ticks")
	}
}
