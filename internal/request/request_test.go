package request

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"kunserve/internal/sim"
)

func newReq() *Request { return New(1, sim.FromSeconds(1), 100, 10) }

func TestNewRequest(t *testing.T) {
	r := newReq()
	if r.State() != StateQueued {
		t.Fatal("initial state")
	}
	if r.PrefillTarget() != 100 || r.RemainingPrefill() != 100 || !r.InPrefill() {
		t.Fatal("fresh prefill accounting")
	}
	if r.ContextLen() != 0 || r.Done() {
		t.Fatal("fresh context")
	}
	if r.TotalTokens() != 109 {
		t.Fatalf("TotalTokens = %d", r.TotalTokens())
	}
	if r.RemainingOutput() != 10 {
		t.Fatalf("RemainingOutput = %d", r.RemainingOutput())
	}
}

func TestBadLensPanic(t *testing.T) {
	for _, c := range []struct{ in, out int }{{0, 5}, {5, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.in, c.out)
				}
			}()
			New(1, 0, c.in, c.out)
		}()
	}
}

func TestChunkedPrefillEmitsFirstTokenAtCompletion(t *testing.T) {
	r := newReq()
	r.SetState(StateRunning)
	r.AdvancePrefill(60, sim.FromSeconds(2))
	if r.Generated != 0 || r.FirstTokenAt != 0 {
		t.Fatal("token emitted before prefill done")
	}
	if r.ContextLen() != 60 {
		t.Fatalf("ContextLen = %d", r.ContextLen())
	}
	r.AdvancePrefill(40, sim.FromSeconds(3))
	if r.Generated != 1 {
		t.Fatal("first token not emitted")
	}
	if r.FirstTokenAt != sim.FromSeconds(3) {
		t.Fatal("FirstTokenAt wrong")
	}
	if r.ContextLen() != 100 {
		t.Fatalf("ContextLen after prefill = %d", r.ContextLen())
	}
}

// The Request stays within 168 bytes: its hot fields fill the first cache
// line, and the one stage-wait stamp covers all three disaggregation waits.
func TestRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 168 {
		t.Errorf("Request is %d bytes, want at most 168", n)
	}
}

// A fresh or renewed request has no stage wait; EndWait reports a
// stamped wait once, from any stamp including time zero, then clears it.
func TestEndWait(t *testing.T) {
	r := newReq()
	if _, ok := r.EndWait(sim.FromSeconds(5)); ok || r.WaitStart != NoWait {
		t.Fatalf("fresh request has a wait stamped at %v", r.WaitStart)
	}
	r.WaitStart = 0
	if w, ok := r.EndWait(sim.FromSeconds(5)); !ok || w != 5*sim.Second {
		t.Fatalf("EndWait = %v, %v; want 5s, true", w, ok)
	}
	if _, ok := r.EndWait(sim.FromSeconds(6)); ok {
		t.Fatal("EndWait reported a cleared wait")
	}
	r.WaitStart = sim.FromSeconds(2)
	r.Renew(9, 0, 10, 10)
	if r.WaitStart != NoWait {
		t.Fatalf("Renew kept the wait stamp %v", r.WaitStart)
	}
}

func TestDecodeToCompletion(t *testing.T) {
	r := newReq()
	r.SetState(StateRunning)
	r.AdvancePrefill(100, sim.FromSeconds(2))
	for i := 0; i < 9; i++ {
		if r.Done() {
			t.Fatalf("done after %d decodes", i)
		}
		r.AdvanceDecodeBy(1)
	}
	if !r.Done() {
		t.Fatal("not done after OutputLen tokens")
	}
	// Live KV at completion: input + output - 1 consumed tokens.
	if r.ContextLen() != 109 {
		t.Fatalf("final ContextLen = %d", r.ContextLen())
	}
}

func TestSingleTokenOutputFinishesAtPrefill(t *testing.T) {
	r := New(2, 0, 50, 1)
	r.SetState(StateRunning)
	r.AdvancePrefill(50, sim.FromSeconds(1))
	if !r.Done() {
		t.Fatal("single-token request should finish at prefill")
	}
	if r.FirstTokenAt != sim.FromSeconds(1) {
		t.Fatal("FirstTokenAt wrong")
	}
}

func TestRecomputeLifecycle(t *testing.T) {
	r := newReq()
	r.SetState(StateRunning)
	r.AdvancePrefill(100, sim.FromSeconds(2))
	r.AdvanceDecodeBy(1)
	r.AdvanceDecodeBy(1) // Generated = 3
	firstToken := r.FirstTokenAt

	r.SetState(StatePreempted)
	r.ResetForRecompute()
	// Must re-prefill prompt + the 2 consumed output tokens.
	if got := r.PrefillTarget(); got != 102 {
		t.Fatalf("PrefillTarget = %d, want 102", got)
	}
	if !r.InPrefill() || r.ContextLen() != 0 {
		t.Fatal("recompute should restart prefill")
	}

	r.SetState(StateRunning)
	r.AdvancePrefill(102, sim.FromSeconds(6))
	// Re-prefill does not emit a new token and never moves FirstTokenAt.
	if r.Generated != 3 {
		t.Fatalf("Generated = %d after re-prefill", r.Generated)
	}
	if r.FirstTokenAt != firstToken {
		t.Fatal("FirstTokenAt moved")
	}
	if r.ContextLen() != 102 {
		t.Fatalf("ContextLen = %d after re-prefill", r.ContextLen())
	}
	// Decode resumes: 7 more tokens to reach OutputLen = 10.
	for i := 0; i < 7; i++ {
		r.AdvanceDecodeBy(1)
	}
	if !r.Done() {
		t.Fatal("not done after resume")
	}
	if r.ContextLen() != r.TotalTokens() {
		t.Fatalf("final context %d != total %d", r.ContextLen(), r.TotalTokens())
	}
}

func TestAdvancePanics(t *testing.T) {
	r := newReq()
	r.SetState(StateRunning)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-prefill did not panic")
			}
		}()
		r.AdvancePrefill(101, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("decode during prefill did not panic")
			}
		}()
		r.AdvanceDecodeBy(1)
	}()
	r.AdvancePrefill(100, sim.FromSeconds(1))
	for i := 0; i < 9; i++ {
		r.AdvanceDecodeBy(1)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("decode after done did not panic")
			}
		}()
		r.AdvanceDecodeBy(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-chunk prefill did not panic")
			}
		}()
		newReq().AdvancePrefill(0, 0)
	}()
}

func TestStateTransitions(t *testing.T) {
	legal := [][]State{
		{StateQueued, StateRunning, StateFinished},
		{StateQueued, StateRunning, StatePreempted, StateQueued, StateRunning},
		{StateQueued, StateRunning, StateSwapped, StateRunning},
		{StateQueued, StateRunning, StateMigrating, StateRunning},
		{StateQueued, StateRunning, StateExchanging, StateRunning},
		{StateQueued, StateRunning, StateHandoff, StateRunning},
		{StateQueued, StateRunning, StateHandoff, StateQueued},
		{StateQueued, StateRunning, StateQueued},
	}
	for i, path := range legal {
		r := newReq()
		for _, s := range path[1:] {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("path %d: legal transition to %v panicked: %v", i, s, p)
					}
				}()
				r.SetState(s)
			}()
		}
	}
	illegal := [][]State{
		{StateQueued, StateFinished},
		{StateQueued, StateSwapped},
		{StateQueued, StateHandoff},
		{StateQueued, StateRunning, StateHandoff, StateFinished},
		{StateQueued, StateRunning, StateFinished, StateRunning},
		{StateQueued, StateRunning, StatePreempted, StateFinished},
	}
	for i, path := range illegal {
		r := newReq()
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			for _, s := range path[1:] {
				r.SetState(s)
			}
		}()
		if !panicked {
			t.Errorf("illegal path %d accepted", i)
		}
	}
}

// TestStateTableExhaustive pins SetState on every (from, to) pair, and
// String and Stalled on every state, out-of-range states included, to the
// tables as they stood when they were maps: a transition is legal exactly
// when the successor list holds it.
func TestStateTableExhaustive(t *testing.T) {
	next := map[State][]State{
		StateQueued:     {StateRunning},
		StateRunning:    {StateFinished, StatePreempted, StateSwapped, StateMigrating, StateExchanging, StateHandoff, StateQueued},
		StatePreempted:  {StateRunning, StateQueued},
		StateSwapped:    {StateRunning, StateQueued},
		StateMigrating:  {StateRunning, StateQueued},
		StateExchanging: {StateRunning, StateQueued},
		StateHandoff:    {StateRunning, StateQueued},
		StateFinished:   {},
	}
	names := map[State]string{
		StateQueued: "queued", StateRunning: "running", StateFinished: "finished",
		StatePreempted: "preempted", StateSwapped: "swapped", StateMigrating: "migrating",
		StateExchanging: "exchanging", StateHandoff: "handoff",
	}
	legal := 0
	for from := State(-3); from <= StateHandoff+3; from++ {
		for to := State(-3); to <= StateHandoff+3; to++ {
			want := slices.Contains(next[from], to)
			r := newReq()
			r.state = from
			ok := true
			func() {
				defer func() { ok = recover() == nil }()
				r.SetState(to)
			}()
			if ok != want {
				t.Errorf("%v -> %v: legal %v, want %v", from, to, ok, want)
			}
			if want {
				legal++
				if r.State() != to {
					t.Errorf("%v -> %v: state %v after the transition", from, to, r.State())
				}
			} else if r.State() != from {
				t.Errorf("%v -> %v: rejected transition moved the state to %v", from, to, r.State())
			}
		}
		name, ok := names[from]
		if !ok {
			name = fmt.Sprintf("state(%d)", int(from))
		}
		if from.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", int(from), from.String(), name)
		}
		stalled := from == StateSwapped || from == StateMigrating || from == StateExchanging || from == StateHandoff
		if from.Stalled() != stalled {
			t.Errorf("%v.Stalled() = %v, want %v", from, from.Stalled(), stalled)
		}
	}
	if legal != 18 {
		t.Errorf("%d legal transitions, want 18", legal)
	}
}

func TestStateString(t *testing.T) {
	if StateQueued.String() != "queued" || StateExchanging.String() != "exchanging" {
		t.Error("state names")
	}
	if StateHandoff.String() != "handoff" {
		t.Error("handoff state name")
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Error("unknown state name")
	}
}

// Property: under any interleaving of chunked prefill and decode, the
// context length never exceeds TotalTokens and equals it exactly at Done.
func TestPropertyLifecycleAccounting(t *testing.T) {
	f := func(chunkSeed []uint8, in8, out8 uint8) bool {
		in, out := 1+int(in8), 1+int(out8)
		r := New(7, 0, in, out)
		r.SetState(StateRunning)
		ci := 0
		now := sim.Time(0)
		for !r.Done() {
			now = now.Add(sim.Millisecond)
			if r.InPrefill() {
				chunk := 1
				if len(chunkSeed) > 0 {
					chunk = 1 + int(chunkSeed[ci%len(chunkSeed)])%r.RemainingPrefill()
					ci++
				}
				r.AdvancePrefill(chunk, now)
			} else {
				r.AdvanceDecodeBy(1)
			}
			if r.ContextLen() > r.TotalTokens() {
				return false
			}
		}
		return r.ContextLen() == r.TotalTokens() && r.Generated == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: recompute at any point preserves Generated and ends with the
// same total token accounting.
func TestPropertyRecomputeAnywhere(t *testing.T) {
	f := func(preemptAt8 uint8) bool {
		r := New(3, 0, 40, 20)
		r.SetState(StateRunning)
		r.AdvancePrefill(40, sim.Time(sim.Millisecond))
		steps := int(preemptAt8) % 18
		for i := 0; i < steps; i++ {
			r.AdvanceDecodeBy(1)
		}
		gen := r.Generated
		r.SetState(StatePreempted)
		r.ResetForRecompute()
		r.SetState(StateRunning)
		if r.Generated != gen {
			return false
		}
		for r.InPrefill() {
			r.AdvancePrefill(7, sim.Time(sim.Second))
			if r.RemainingPrefill() < 7 && r.RemainingPrefill() > 0 {
				r.AdvancePrefill(r.RemainingPrefill(), sim.Time(sim.Second))
			}
		}
		for !r.Done() {
			r.AdvanceDecodeBy(1)
		}
		return r.ContextLen() == r.TotalTokens()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
