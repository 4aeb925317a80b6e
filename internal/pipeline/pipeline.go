// Package pipeline implements pipeline-parallel execution across serving
// instances after a parameter drop (and for the static vLLM-PP baseline).
//
// Execution proceeds in rounds: the group's scheduler forms a set of
// microbatches, and each microbatch flows through the stages in order —
// stage s starts microbatch m when (a) the stage is free and (b) m's
// activations have arrived from stage s-1 over the instance's egress link.
// Imbalanced microbatch execution times therefore surface as measured stage
// idle time (Figure 8's bubbles), and activation transfers genuinely
// contend with bulk KVCache-exchange traffic on the links (§4.2).
package pipeline

import (
	"fmt"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/network"
	"kunserve/internal/sim"
)

// Stage is one pipeline stage: a serving instance holding a contiguous
// slice of the model's layers.
type Stage struct {
	// InstanceID identifies the backing instance (for diagnostics).
	InstanceID int
	// Timer times microbatches against this stage's partial model.
	Timer *gpu.Timer
	// Egress is the instance's NIC link used to forward activations to
	// the next stage; unused on the last stage.
	Egress *network.Link

	busy  bool
	queue []*flight

	// active is the flight executing on the stage (busy == true).
	active *flight
	// transit holds flights whose activations are on the wire to the next
	// stage, in send order — the link delivers same-priority transfers
	// FIFO, so the head is always the next to arrive.
	transit []*flight
	// execDone/arrived are this stage's persistent completion callbacks
	// (built by New), so steady-state execution schedules no closures.
	execDone func()
	arrived  func()

	busyTotal sim.Duration
	busySince sim.Time
}

// BusyTime returns the stage's cumulative execution time.
func (st *Stage) BusyTime() sim.Duration { return st.busyTotal }

// flight is one microbatch traversing the pipeline.
type flight struct {
	mb   batching.Microbatch
	work []gpu.ChunkWork
}

// Engine executes rounds over a fixed stage list.
type Engine struct {
	simu   *sim.Simulation
	stages []*Stage

	// ActivationBytesPerToken is the per-token activation payload
	// forwarded between stages (hidden dim x 2 bytes for BF16).
	activationBytesPerToken int64

	inFlight  int
	roundDone func()
	spanStart sim.Time
	spanTotal sim.Duration
	running   bool

	// flightFree recycles flight structs (and their work slices) across
	// rounds, so a steady-state round allocates nothing per microbatch.
	flightFree []*flight
}

// New creates an engine over the given stages.
func New(s *sim.Simulation, stages []*Stage, activationBytesPerToken int64) *Engine {
	if len(stages) == 0 {
		panic("pipeline: no stages")
	}
	if activationBytesPerToken <= 0 {
		panic(fmt.Sprintf("pipeline: activation bytes %d", activationBytesPerToken))
	}
	e := &Engine{simu: s, stages: stages, activationBytesPerToken: activationBytesPerToken}
	for i, st := range stages {
		i, st := i, st
		st.execDone = func() { e.stageExecDone(i) }
		st.arrived = func() { e.stageArrived(i) }
	}
	return e
}

func (e *Engine) getFlight() *flight {
	if n := len(e.flightFree); n > 0 {
		f := e.flightFree[n-1]
		e.flightFree[n-1] = nil
		e.flightFree = e.flightFree[:n-1]
		return f
	}
	return &flight{}
}

func (e *Engine) putFlight(f *flight) {
	f.mb = batching.Microbatch{}
	e.flightFree = append(e.flightFree, f)
}

// Stages returns the stage count.
func (e *Engine) Stages() int { return len(e.stages) }

// Stage returns stage i.
func (e *Engine) Stage(i int) *Stage { return e.stages[i] }

// SpanTime returns cumulative wall time spent inside rounds.
func (e *Engine) SpanTime() sim.Duration { return e.spanTotal }

// BubbleRatio returns the fraction of stage-time spent idle inside rounds
// so far: 1 - sum(busy) / (span * stages).
func (e *Engine) BubbleRatio() float64 {
	if e.spanTotal <= 0 {
		return 0
	}
	var busy sim.Duration
	for _, st := range e.stages {
		busy += st.busyTotal
	}
	denom := e.spanTotal.Seconds() * float64(len(e.stages))
	ratio := 1 - busy.Seconds()/denom
	if ratio < 0 {
		ratio = 0
	}
	return ratio
}

// RunRound pipelines the microbatches through all stages and calls done
// when the last one leaves the last stage. A microbatch's Dec holds the
// decode steps its former summed rather than listed as items: each stage
// prices them with its items as one aggregate term (gpu.Timer.Time, with
// the same bits as pricing them as items), and they count toward the
// activations forwarded. A microbatch with neither items nor decodes is
// skipped. The engine processes one round at a time; overlapping rounds is
// the caller's bug.
func (e *Engine) RunRound(microbatches []batching.Microbatch, done func()) {
	if e.running {
		panic("pipeline: round already running")
	}
	n := 0
	for _, mb := range microbatches {
		if len(mb.Items) > 0 || mb.Dec.N > 0 {
			n++
		}
	}
	if n == 0 {
		done()
		return
	}
	e.running = true
	e.inFlight = n
	e.roundDone = done
	e.spanStart = e.simu.Now()
	for _, mb := range microbatches {
		if len(mb.Items) == 0 && mb.Dec.N == 0 {
			continue
		}
		f := e.getFlight()
		f.mb = mb
		f.work = batching.AppendChunkWork(f.work[:0], mb.Items)
		e.enqueue(0, f)
	}
}

func (e *Engine) enqueue(stage int, f *flight) {
	st := e.stages[stage]
	st.queue = append(st.queue, f)
	e.pump(stage)
}

func (e *Engine) pump(stage int) {
	st := e.stages[stage]
	if st.busy || len(st.queue) == 0 {
		return
	}
	f := st.queue[0]
	copy(st.queue, st.queue[1:])
	st.queue[len(st.queue)-1] = nil
	st.queue = st.queue[:len(st.queue)-1]
	st.busy = true
	st.active = f
	st.busySince = e.simu.Now()
	d := st.Timer.Time(f.work, f.mb.Dec)
	e.simu.After(d, "pipeline:exec", st.execDone)
}

// stageExecDone completes the stage's active microbatch execution.
func (e *Engine) stageExecDone(stage int) {
	st := e.stages[stage]
	f := st.active
	st.active = nil
	now := e.simu.Now()
	st.busy = false
	st.busyTotal += now.Sub(st.busySince)
	e.advance(stage, f)
	e.pump(stage)
}

// stageArrived lands the stage's oldest in-transit activation transfer on
// the next stage. Transfers of one priority class complete in send order on
// a link, so the transit head is always the one that arrived.
func (e *Engine) stageArrived(stage int) {
	st := e.stages[stage]
	f := st.transit[0]
	copy(st.transit, st.transit[1:])
	st.transit[len(st.transit)-1] = nil
	st.transit = st.transit[:len(st.transit)-1]
	e.enqueue(stage+1, f)
}

func (e *Engine) advance(stage int, f *flight) {
	if stage == len(e.stages)-1 {
		e.putFlight(f)
		e.inFlight--
		if e.inFlight == 0 {
			e.running = false
			e.spanTotal += e.simu.Now().Sub(e.spanStart)
			done := e.roundDone
			e.roundDone = nil
			done()
		}
		return
	}
	// Forward activations to the next stage over the NIC. The payload is
	// proportional to the microbatch's new tokens.
	bytes := int64(f.mb.Tokens()) * e.activationBytesPerToken
	st := e.stages[stage]
	st.transit = append(st.transit, f)
	st.Egress.Send(bytes, network.PriorityActivation, st.arrived)
}
