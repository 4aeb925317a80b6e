package bench

import "time"

// The host's speed drifts: on a shared machine the same pass can take
// nearly twice as long an hour later, and the slow spells outlast a run.
// Each pass therefore times a speed probe when it starts and again when it
// ends. host.slowdown is the median probe time over probeNominal, and every
// time the pass measures is divided by host.slowdown^probeElasticity.
//
// One repetition lasts tens of milliseconds, and the host's speed changes
// on about that scale too: single repetitions range over nearly 2x within
// a second. Only the median of repetitions spread out in time, with a gap
// between them, tracks the speed a pass of several seconds sees; the
// fastest repetition does not.
//
// The simulator slows less than the probe does: across slow and fast
// spells, pass time moved as host.slowdown^0.7, on every workload. So
// dividing by host.slowdown itself would overcorrect.
//
// The probe is allocation churn with a small live heap, so it exercises
// the allocator and the collector the way the simulator does; of the
// probes tried (an integer loop, pointer chases resident in L1, L2 and L3,
// and this one), it was the only one whose time rose in proportion to the
// simulator's over slow spells. It shares no code with the simulator and
// runs before the first cell and after the heap is collected, so a change
// to the simulator cannot move it.
const (
	probeAllocs  = 200_000
	probeWarmup  = 1
	probeGap     = 20 * time.Millisecond
	probeNominal = 20 * time.Millisecond
	// probeElasticity is the measured exponent of pass time in host.slowdown.
	probeElasticity = 0.7
)

// probeReps is the number of timed repetitions at each end of a pass. The
// tests lower it, as they check what a pass reports, not how steady it is.
var probeReps = 8

type probeObj struct {
	a, b int
	vals []int
}

// probeHost times probeReps repetitions of the probe, after probeWarmup
// untimed ones, with probeGap between them, and returns their times in
// seconds. Every 64th object stays reachable until overwritten, so the
// live heap stays constant.
func probeHost() []float64 {
	keep := make([]*probeObj, 4096)
	var out []float64
	for rep := 0; rep < probeWarmup+probeReps; rep++ {
		t := time.Now()
		for i := 0; i < probeAllocs; i++ {
			o := &probeObj{a: i, vals: make([]int, 8)}
			if i%64 == 0 {
				keep[i/64%len(keep)] = o
			}
		}
		if rep >= probeWarmup {
			out = append(out, time.Since(t).Seconds())
		}
		time.Sleep(probeGap)
	}
	return out
}
