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
	// Timer times microbatches against this stage's partial model.
	Timer *gpu.Timer
	// Egress is the instance's NIC link used to forward activations to
	// the next stage; unused on the last stage.
	Egress *network.Link

	// Microbatches run on every stage in round order: stage 0 takes them
	// in order, and activations of one priority class land on the next
	// stage in send order (the link serves a class FIFO). So two counters
	// of microbatches since the engine was built are the stage's whole
	// queue: next counts those the stage started, and ready those whose
	// input is on the stage. Every stage ends a round with both at the
	// engine's base.
	next, ready int
	busy        bool
	// execDone/arrived are this stage's persistent completion callbacks
	// (built by New), so steady-state execution schedules no closures.
	execDone func()
	arrived  func()

	busyTotal sim.Duration
	busySince sim.Time
}

// Engine executes rounds over a fixed stage list.
type Engine struct {
	simu   *sim.Simulation
	stages []*Stage

	// ActivationBytesPerToken is the per-token activation payload
	// forwarded between stages (hidden dim x 2 bytes for BF16).
	activationBytesPerToken int64

	// mbs holds the running round's nonempty microbatches in order and
	// work[i] the chunk list of mbs[i]; both are reused across rounds, so
	// a steady-state round allocates nothing per microbatch. Microbatch
	// mbs[i] is the stages' microbatch base+i.
	mbs       []batching.Microbatch
	base      int
	work      [][]gpu.ChunkWork
	roundDone func()
	spanStart sim.Time
	spanTotal sim.Duration
	running   bool
}

// New creates an engine over the given stages, at least two: a
// single-stage group runs its rounds on its instance's timer directly.
func New(s *sim.Simulation, stages []*Stage, activationBytesPerToken int64) *Engine {
	if len(stages) < 2 {
		panic(fmt.Sprintf("pipeline: %d stages, want at least 2", len(stages)))
	}
	if activationBytesPerToken <= 0 {
		panic(fmt.Sprintf("pipeline: activation bytes %d", activationBytesPerToken))
	}
	e := &Engine{simu: s, stages: stages, activationBytesPerToken: activationBytesPerToken}
	for i, st := range stages {
		st.next, st.ready = 0, 0
		if i == len(stages)-1 {
			st.execDone = func() { e.stageExecDone(st, true) }
			continue
		}
		st.execDone = func() { e.stageExecDone(st, false) }
		// An activation transfer landed: the oldest, since the link serves
		// a priority class in send order.
		next := stages[i+1]
		st.arrived = func() {
			next.ready++
			e.pump(next)
		}
	}
	return e
}

// Stages returns the stage count.
func (e *Engine) Stages() int { return len(e.stages) }

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
// skipped. The engine copies the microbatches, so the caller may reuse
// the slice once RunRound returns. The engine processes one round at a
// time; overlapping rounds is the caller's bug.
func (e *Engine) RunRound(microbatches []batching.Microbatch, done func()) {
	if e.running {
		panic("pipeline: round already running")
	}
	for _, mb := range microbatches {
		if len(mb.Items) > 0 || mb.Dec.N > 0 {
			e.mbs = append(e.mbs, mb)
		}
	}
	n := len(e.mbs)
	if n == 0 {
		done()
		return
	}
	for len(e.work) < n {
		e.work = append(e.work, nil)
	}
	for i, mb := range e.mbs {
		e.work[i] = batching.AppendChunkWork(e.work[i][:0], mb.Items)
	}
	e.running = true
	e.roundDone = done
	e.spanStart = e.simu.Now()
	e.stages[0].ready += n
	e.pump(e.stages[0])
}

// pump starts the stage's next microbatch if the stage is free and the
// microbatch's input has arrived.
func (e *Engine) pump(st *Stage) {
	if st.busy || st.next == st.ready {
		return
	}
	st.busy = true
	st.busySince = e.simu.Now()
	m := st.next - e.base
	d := st.Timer.Time(e.work[m], e.mbs[m].Dec)
	e.simu.After(d, "pipeline:exec", st.execDone)
}

// stageExecDone completes the stage's running microbatch: the last stage
// retires it (ending the round after the last one), any other forwards its
// activations to the next stage over the NIC, with a payload proportional
// to the microbatch's new tokens.
func (e *Engine) stageExecDone(st *Stage, last bool) {
	m := st.next - e.base
	st.next++
	st.busy = false
	st.busyTotal += e.simu.Now().Sub(st.busySince)
	if !last {
		bytes := int64(e.mbs[m].Tokens()) * e.activationBytesPerToken
		st.Egress.Send(bytes, network.PriorityActivation, st.arrived)
	} else if m+1 == len(e.mbs) {
		e.running = false
		e.base = st.next
		e.spanTotal += e.simu.Now().Sub(e.spanStart)
		e.mbs = e.mbs[:0]
		done := e.roundDone
		e.roundDone = nil
		done()
	}
	e.pump(st)
}
