package sim

import (
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

func TestCancelPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(time.Second, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() {
		t.Fatal("Pending() = true after cancel")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	s.Cancel(e)
	s.Cancel(Handle{})
}

func TestCancelOneOfMany(t *testing.T) {
	s := New(1)
	var got []string
	a := s.At(FromSeconds(1), "a", func() { got = append(got, "a") })
	s.At(FromSeconds(2), "b", func() { got = append(got, "b") })
	s.At(FromSeconds(3), "c", func() { got = append(got, "c") })
	s.Cancel(a)
	s.Run()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("got %v", got)
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

// A handle to a fired event goes stale when the struct is recycled for a
// new schedule: cancelling through it must not kill the new event.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	s := New(1)
	firstFired, secondFired := false, false
	first := s.At(FromSeconds(1), "first", func() { firstFired = true })
	if !s.Step() {
		t.Fatal("Step returned false with a queued event")
	}
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// The fired struct is first in line on the free list, so this schedule
	// recycles it under a new generation.
	second := s.At(FromSeconds(2), "second", func() { secondFired = true })
	if first.Pending() {
		t.Fatal("handle to fired event still pending")
	}
	s.Cancel(first) // stale: must be a no-op
	if !second.Pending() {
		t.Fatal("stale cancel killed the recycled event")
	}
	s.Run()
	if !secondFired {
		t.Fatal("recycled event did not fire")
	}
	if first.At() != 0 {
		t.Fatalf("stale handle At() = %v, want 0", first.At())
	}
}

// A cancelled event's struct, once recycled for a new schedule, fires
// exactly once for the new callback — never for the cancelled one.
func TestCancelledThenRecycledEventNeverFires(t *testing.T) {
	s := New(1)
	cancelledFired := false
	fires := 0
	h := s.At(FromSeconds(1), "doomed", func() { cancelledFired = true })
	s.Cancel(h)
	// Recycles the cancelled struct.
	s.At(FromSeconds(1), "fresh", func() { fires++ })
	s.Cancel(h) // still stale, still a no-op
	s.Run()
	if cancelledFired {
		t.Fatal("cancelled event fired after recycling")
	}
	if fires != 1 {
		t.Fatalf("recycled event fired %d times, want 1", fires)
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
	fn := func() {}
	avg := testing.AllocsPerRun(100, func() {
		s.After(Microsecond, "steady", fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocated %v objects/op, want 0", avg)
	}
}

// The schedule/cancel cycle must be allocation-free at steady state too.
func TestAllocsSteadyStateScheduleCancel(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.After(Duration(i)*Microsecond, "prime", func() {})
	}
	s.Run()
	fn := func() {}
	avg := testing.AllocsPerRun(100, func() {
		h := s.After(Microsecond, "steady", fn)
		s.Cancel(h)
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel allocated %v objects/op, want 0", avg)
	}
}

// Property: interleaved schedule/cancel sequences never fire cancelled
// events and always fire non-cancelled ones.
func TestPropertyCancelSoundness(t *testing.T) {
	f := func(cancelMask []bool) bool {
		s := New(3)
		fired := make([]bool, len(cancelMask))
		events := make([]Handle, len(cancelMask))
		for i := range cancelMask {
			i := i
			events[i] = s.After(Duration(i+1)*Millisecond, "p", func() { fired[i] = true })
		}
		for i, c := range cancelMask {
			if c {
				s.Cancel(events[i])
			}
		}
		s.Run()
		for i, c := range cancelMask {
			if c == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
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

// TestCancelWithinBatch cancels a later sibling of the same instant from a
// callback: the sibling neither fires nor counts as processed, and its
// recycled slot carries the next schedule without ghost-firing.
func TestCancelWithinBatch(t *testing.T) {
	s := New(1)
	var victim Handle
	fired := false
	s.After(Millisecond, "canceller", func() { s.Cancel(victim) })
	victim = s.After(Millisecond, "victim", func() { fired = true })
	s.After(Millisecond, "tail", func() {})
	s.Run()
	if fired {
		t.Fatal("cancelled same-instant sibling fired")
	}
	if s.Processed != 2 {
		t.Fatalf("Processed = %d, want 2 (canceller + tail)", s.Processed)
	}
	refired := false
	s.After(Millisecond, "reuse", func() { refired = true })
	s.Run()
	if !refired {
		t.Fatal("recycled slot lost its event")
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
