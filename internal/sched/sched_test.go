package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kunserve/internal/request"
	"kunserve/internal/sim"
)

func req(id int, arrival sim.Time, class string) *request.Request {
	r := request.New(id, arrival, 128, 16)
	r.Class = class
	return r
}

func cands(loads ...[2]int) []Candidate {
	out := make([]Candidate, len(loads))
	for i, l := range loads {
		out[i] = Candidate{ID: i, DemandTokens: l[0], CapacityTokens: l[1]}
	}
	return out
}

// pick dispatches over cs through an Index, inserting in reverse ID order
// so a tie cannot fall to whichever candidate arrived first.
func pick(t *testing.T, r Router, cs []Candidate) int {
	t.Helper()
	x := NewIndex(r)
	for i := len(cs) - 1; i >= 0; i-- {
		x.Update(cs[i])
	}
	id, ok := x.Min()
	if !ok {
		t.Fatal("index empty")
	}
	if want := argmin(r, cs); id != want {
		t.Fatalf("%s: index picked %d, argmin over Key %d", r.Name(), id, want)
	}
	return id
}

func TestLeastLoadedPicksStrictMinKeepingFirstTie(t *testing.T) {
	r := NewLeastLoaded()
	// loads: 0.5, 0.25, 0.25 — tie between 1 and 2 keeps 1.
	if got := pick(t, r, cands([2]int{50, 100}, [2]int{25, 100}, [2]int{25, 100})); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	if pick(t, r, cands([2]int{10, 100})) != 0 {
		t.Error("single candidate must route to 0")
	}
}

func TestQueueDepthPicksShortestQueueKeepingFirstTie(t *testing.T) {
	r := NewQueueDepth()
	cands := []Candidate{
		{ID: 0, QueueLen: 3, DemandTokens: 0, CapacityTokens: 100},
		{ID: 1, QueueLen: 1, DemandTokens: 99, CapacityTokens: 100},
		{ID: 2, QueueLen: 1, DemandTokens: 0, CapacityTokens: 100},
	}
	// Shortest queue wins regardless of KV load; ties keep the lowest ID.
	if got := pick(t, r, cands); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	if got := pick(t, r, cands[:1]); got != 0 {
		t.Errorf("single candidate = %d", got)
	}
}

func TestFCFSOrderAndPushFront(t *testing.T) {
	q := NewFCFS()
	a, b, c := req(1, 0, ""), req(2, 1, ""), req(3, 2, "")
	q.Push(a)
	q.Push(b)
	q.PushFront(c) // preemption path: literal front
	if q.Len() != 3 || q.Peek() != c {
		t.Fatalf("peek = %v", q.Peek())
	}
	got := []*request.Request{q.Pop(), q.Pop(), q.Pop()}
	if want := []*request.Request{c, a, b}; !reflect.DeepEqual(got, want) {
		t.Errorf("order wrong")
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Error("empty queue must return nil")
	}
}

// FCFS matches a plain-slice model under seeded random Push, PushFront
// and Pop, with Each, Peek and Len checked after every operation,
// and every slot outside the queue stays nil (no retained requests).
func TestFCFSMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := &FCFS{}
		var model []*request.Request
		for op, id := 0, 0; op < 2000; op++ {
			switch k := rng.Intn(10); {
			case k < 3:
				r := req(id, 0, "")
				id++
				f.Push(r)
				model = append(model, r)
			case k < 6:
				r := req(id, 0, "")
				id++
				f.PushFront(r)
				model = append([]*request.Request{r}, model...)
			default:
				var want *request.Request
				if len(model) > 0 {
					want, model = model[0], model[1:]
				}
				if got := f.Pop(); got != want {
					t.Fatalf("seed %d op %d: Pop %v, model %v", seed, op, got, want)
				}
			}
			if f.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, f.Len(), len(model))
			}
			var head *request.Request
			if len(model) > 0 {
				head = model[0]
			}
			if f.Peek() != head {
				t.Fatalf("seed %d op %d: Peek %v, model %v", seed, op, f.Peek(), head)
			}
			var each []*request.Request
			f.Each(func(r *request.Request) { each = append(each, r) })
			if !slices.Equal(each, model) {
				t.Fatalf("seed %d op %d: Each %v, model %v", seed, op, each, model)
			}
			for i, r := range f.q[:cap(f.q)] {
				if (i < f.head || i >= len(f.q)) && r != nil {
					t.Fatalf("seed %d op %d: slot %d outside the queue holds request %d", seed, op, i, r.ID)
				}
			}
		}
	}
}

// Warmed, steady FCFS churn — re-queues at the front, admissions from the
// head, arrivals at the back, and the queue running dry — allocates
// nothing.
func TestFCFSSteadyChurnAllocatesNothing(t *testing.T) {
	f := &FCFS{}
	pool := make([]*request.Request, 64)
	for i := range pool {
		pool[i] = req(i, 0, "")
		f.Push(pool[i])
	}
	churn := func() {
		r := f.Pop()
		f.PushFront(r)
		r = f.Pop()
		f.Push(r)
	}
	drain := func() {
		var out [8]*request.Request
		for i := range out {
			out[i] = f.Pop()
		}
		for _, r := range out {
			f.PushFront(r)
		}
	}
	for i := 0; i < 1000; i++ {
		churn()
		drain()
	}
	if avg := testing.AllocsPerRun(1000, churn); avg != 0 {
		t.Errorf("Pop/PushFront/Pop/Push churn allocates %.3f times per cycle", avg)
	}
	if avg := testing.AllocsPerRun(1000, drain); avg != 0 {
		t.Errorf("pop-eight/re-queue-eight churn allocates %.3f times per cycle", avg)
	}
	one := &FCFS{}
	r := pool[0]
	one.PushFront(r)
	if avg := testing.AllocsPerRun(1000, func() { one.PushFront(one.Pop()) }); avg != 0 {
		t.Errorf("re-queueing the only request allocates %.3f times", avg)
	}
	if f.Len() != len(pool) || one.Len() != 1 {
		t.Fatalf("churn lost requests: %d and %d queued", f.Len(), one.Len())
	}
}

func TestPriorityOrdersByClassThenArrival(t *testing.T) {
	targets := ClassTargets{
		"strict": {TTFT: 1, Priority: 10},
		"batch":  {TTFT: 10, Priority: 0},
	}
	q := NewPriority(targets)
	b1 := req(1, 0, "batch")
	s1 := req(2, sim.FromSeconds(5), "strict")
	b2 := req(3, sim.FromSeconds(1), "batch")
	s2 := req(4, sim.FromSeconds(6), "strict")
	u := req(5, 0, "unknown") // undeclared class runs at priority 0
	for _, r := range []*request.Request{b1, s1, b2, s2, u} {
		q.Push(r)
	}
	var ids []int
	q.Each(func(r *request.Request) { ids = append(ids, r.ID) })
	// strict first (by arrival), then priority-0 by arrival then ID.
	if want := []int{2, 4, 1, 5, 3}; !reflect.DeepEqual(ids, want) {
		t.Errorf("order = %v, want %v", ids, want)
	}
}

func TestEDFOrdersByDeadline(t *testing.T) {
	targets := ClassTargets{
		"strict": {TTFT: 1},
		"batch":  {TTFT: 100},
	}
	q := NewEDF(targets)
	b := req(1, 0, "batch")                     // deadline 100s
	s := req(2, sim.FromSeconds(50), "strict")  // deadline 51s
	s2 := req(3, sim.FromSeconds(98), "strict") // deadline 99s
	u := req(4, 0, "")                          // no target: far-future deadline
	for _, r := range []*request.Request{b, s, s2, u} {
		q.Push(r)
	}
	var ids []int
	for q.Len() > 0 {
		ids = append(ids, q.Pop().ID)
	}
	if want := []int{2, 3, 1, 4}; !reflect.DeepEqual(ids, want) {
		t.Errorf("order = %v, want %v", ids, want)
	}
}

func TestRegistries(t *testing.T) {
	for _, name := range DisciplineNames {
		d, err := NewDisciplineByName(name, nil)
		if err != nil || d == nil {
			t.Errorf("discipline %q: %v", name, err)
		} else if d.Name() != name {
			t.Errorf("discipline %q reports name %q", name, d.Name())
		}
	}
	// The empty name selects the default.
	if d, err := NewDisciplineByName("", nil); err != nil || d.Name() != "fcfs" {
		t.Errorf("default discipline: %v %v", d, err)
	}
	if _, err := NewDisciplineByName("nope", nil); err == nil {
		t.Error("unknown discipline accepted")
	}
}

func TestClassTargetsNames(t *testing.T) {
	tg := ClassTargets{"b": {}, "a": {}, "c": {}}
	if got := tg.Names(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Names = %v", got)
	}
}
