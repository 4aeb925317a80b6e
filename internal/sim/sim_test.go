package sim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var zero Time
	tm := zero.Add(1500 * Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", tm.Seconds())
	}
	if d := tm.Sub(zero); d != 1500*time.Millisecond {
		t.Fatalf("Sub = %v", d)
	}
	if !zero.Before(tm) || !tm.After(zero) {
		t.Fatal("ordering broken")
	}
	if got := FromSeconds(2.5); got != Time(2500*Millisecond) {
		t.Fatalf("FromSeconds = %v", got)
	}
	if got := DurationFromSeconds(0.25); got != 250*Millisecond {
		t.Fatalf("DurationFromSeconds = %v", got)
	}
	if s := Time(1234 * Millisecond).String(); s != "1.234s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(FromSeconds(3), "c", func() { order = append(order, 3) })
	s.At(FromSeconds(1), "a", func() { order = append(order, 1) })
	s.At(FromSeconds(2), "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != FromSeconds(3) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(FromSeconds(1), "e", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break broke insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var fired Time
	s.After(100*Millisecond, "outer", func() {
		s.After(50*Millisecond, "inner", func() { fired = s.Now() })
	})
	s.Run()
	if fired != FromSeconds(0.15) {
		t.Fatalf("fired at %v, want 0.150s", fired)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	n := 0
	for i := 1; i <= 5; i++ {
		s.At(FromSeconds(float64(i)), "e", func() {
			n++
			if n == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 2 {
		t.Fatalf("processed %d events, want 2", n)
	}
	if s.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", s.Pending())
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(FromSeconds(1), "a", func() { fired++ })
	s.At(FromSeconds(5), "b", func() { fired++ })
	s.RunUntil(FromSeconds(2))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != FromSeconds(2) {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
	s.RunUntil(FromSeconds(10))
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(FromSeconds(1), "a", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(FromSeconds(0.5), "past", func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-time.Second, "neg", func() {})
}

func TestDeterministicRNG(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestProcessedCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.After(Duration(i)*Millisecond, "e", func() {})
	}
	s.Run()
	if s.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed)
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the clock ends at the max offset.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		s := New(7)
		var fireTimes []Time
		var max Time
		for _, off := range offsets {
			d := Duration(off) * Microsecond
			at := Time(d)
			if at > max {
				max = at
			}
			s.At(at, "p", func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(offsets) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Pooling must make the steady-state schedule/fire cycle allocation-free:
// once the pool is primed, neither scheduling nor firing touches the heap.
func TestAllocsSteadyStateScheduleFire(t *testing.T) {
	s := New(1)
	// Prime the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.After(Duration(i)*Microsecond, "prime", func() {})
	}
	s.Run()
	fires := 0
	fn := func() { fires++ }
	avg := testing.AllocsPerRun(100, func() {
		s.After(Microsecond, "steady", fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocated %v objects/op, want 0", avg)
	}
	// Every schedule reused a recycled struct and fired exactly once
	// (AllocsPerRun adds one warm-up call to its 100 runs).
	if fires != 101 || s.Pending() != 0 {
		t.Fatalf("recycled events fired %d times with %d pending, want 101 and 0",
			fires, s.Pending())
	}

	// At fleet depth: 128 events, each rescheduling itself 16.8–33.4 ms
	// ahead as engine rounds do, and a 1 s tick past the ring's window.
	// Once the far heap has reached its depth, no step allocates: the
	// buckets are fixed arrays.
	deep := New(1)
	next := 0
	var round func()
	round = func() {
		deep.After(16800*Microsecond+Duration(next*7919%128)*130*Microsecond, "round", round)
		next++
	}
	var tick func()
	tick = func() { deep.After(Second, "tick", tick) }
	for i := 0; i < 128; i++ {
		round()
	}
	tick()
	for i := 0; i < 20000; i++ {
		deep.Step()
	}
	const steps = 20000
	start := deep.Now()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			deep.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("%d steps with 129 events pending allocated %.0f times", steps, allocs)
	}
	if deep.Pending() != 129 || deep.Now().Sub(start) < 2*Second {
		t.Fatalf("%d events pending after %v, want 129 after at least 2 s of ticks",
			deep.Pending(), deep.Now().Sub(start))
	}
}

// An event scheduled late under a reserved sequence number ties with
// same-time events as if it had been scheduled at the Reserve call: it
// fires before a same-time event scheduled after Reserve but before it,
// and after one scheduled before Reserve.
func TestReservedSequenceFiresInReservationOrder(t *testing.T) {
	s := New(1)
	var order []string
	at := FromSeconds(1)
	record := func(arg any) { order = append(order, arg.(string)) }
	s.AtCall(at, "before", record, "before")
	base := s.Reserve(2)
	s.AtCall(at, "after", record, "after")
	s.AtSeqCall(at, base+1, "reserved1", record, "reserved1")
	s.AtSeqCall(at, base, "reserved0", record, "reserved0")
	s.Run()
	want := []string{"before", "reserved0", "reserved1", "after"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// A sequence number that was never reserved panics: it could collide with
// one handed out to an ordinary schedule.
func TestUnreservedSequencePanics(t *testing.T) {
	s := New(1)
	base := s.Reserve(1)
	defer func() {
		if recover() == nil {
			t.Error("scheduling under an unreserved sequence did not panic")
		}
	}()
	s.AtSeqCall(FromSeconds(1), base+1, "bad", func(any) {}, nil)
}

// TestBatchedRunMatchesSequentialOrder pins the order a same-instant cohort
// and its follow-ups fire in: a follow-up scheduled from a callback takes a
// later sequence number, so it fires after the whole already-queued cohort,
// in the order the follow-ups were scheduled.
func TestBatchedRunMatchesSequentialOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		s.After(Millisecond, "e", func() {
			order = append(order, i)
			if i < 4 {
				s.After(0, "follow", func() { order = append(order, 100+i) })
			}
		})
	}
	s.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102, 103}
	if len(order) != len(want) {
		t.Fatalf("follow-up order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("follow-up order = %v, want %v", order, want)
		}
	}
}

// TestStopWithinBatch stops in the middle of a same-instant cohort: Run
// halts between events and the rest of the cohort stays pending.
func TestStopWithinBatch(t *testing.T) {
	s := New(1)
	var fired []string
	s.After(Millisecond, "a", func() { fired = append(fired, "a"); s.Stop() })
	s.After(Millisecond, "b", func() { fired = append(fired, "b") })
	s.After(Millisecond, "c", func() { fired = append(fired, "c") })
	s.Run()
	if len(fired) != 1 || fired[0] != "a" || s.Pending() != 2 || s.Processed != 1 {
		t.Fatalf("mid-cohort stop: fired %v, pending %d, Processed %d; want [a], 2, 1",
			fired, s.Pending(), s.Processed)
	}
}
