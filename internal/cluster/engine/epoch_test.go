package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kunserve/internal/batching"
	"kunserve/internal/gpu"
	"kunserve/internal/request"
)

// refCollect is collect as one walk over the whole lane, the way every
// round ran before the epoch lane: it builds a round from lane, a
// materialized copy of the engine's lane, and advances the copy's fast
// slots in place. Rounds then began on a compacted lane, so the stop rule
// counts the lane less the carried slots that were dead when the round
// began. With the rule waived, a slot with no room and a counted tail
// crosses on the fast path: its room restarts at the block size before
// the token (the engine also claims the block from the pool, which the
// copy does not). It is the oracle for epochCollect and walkCollect.
func refCollect(e *Engine, lane []slot, carried int) (items []batching.Item, prefills []int32, fast gpu.DecodeSum, crossed int) {
	fastLimit := e.fastLimit()
	stamp := e.curStamp + 1
	stop := fastLimit > 0 && e.pool.AvailableBlocks() < len(lane)-carried
	if stop {
		// Waived too when the pool has a block for every decode that needs
		// block-level work.
		crossings := 0
		for i := range lane {
			if lane[i].is(slotHot) && lane[i].room < 1 {
				crossings++
			}
		}
		stop = e.pool.AvailableBlocks() < crossings
	}
	for i := range lane {
		s := &lane[i]
		if s.is(slotHot) {
			crossing := !stop && s.room < 1 && s.is(slotCounted)
			if fast.N+len(items) < fastLimit && (s.room >= 1 || crossing) && s.left >= 2 {
				if crossing {
					s.room = int32(e.pool.BlockTokens())
					crossed++
				}
				fast.N++
				fast.Context += int(s.ctx) + 1
				s.room--
				s.kv++
				s.gen++
				s.ctx++
				s.left--
				s.stamp = stamp
				s.set(slotFast, true)
				continue
			}
			if stop {
				fastLimit = 0
			}
			items = append(items, batching.Item{Req: s.req, Lane: int32(i), Chunk: 1, Prefix: int(s.ctx)})
			continue
		}
		r := s.req
		if r == nil || r.State() != request.StateRunning || r.Done() {
			continue
		}
		prefills = append(prefills, int32(i))
	}
	return items, prefills, fast, crossed
}

// oracle watches the engine's collect step through the round hook: before
// it, the oracle runs refCollect on a materialized copy of the lane; after
// it, it compares the two rounds and every slot, materialized.
type oracle struct {
	t *testing.T
	e *Engine
	// carried is the number of dead slots the round began with.
	carried int
	// epoch, walk and fastWalk count epoch rounds, walk rounds and walk
	// rounds with a nonzero fastLimit; switches counts entries into the
	// epoch lane; due and cold count epoch rounds with due items and with
	// prefills. covered and uncovered count the single-stage rounds within
	// fastLimit that began with the stop rule live: the ones whose block
	// crossings the pool covered, taken on the epoch lane, and the ones it
	// did not, which fell back to the walk. crossed counts the block
	// crossings epoch rounds took on the fast path.
	epoch, walk, fastWalk, switches, due, cold int
	covered, uncovered, crossed                int

	// The current round as of just before collect: refCollect's round
	// and the copy of the lane it advanced, the pool's available blocks,
	// whether the stop rule was live, the hot slots needing a block and
	// whether the epoch lane was on.
	wantItems            []batching.Item
	wantPrefills         []int32
	wantFast             gpu.DecodeSum
	wantCrossed          int
	lane                 []slot
	avail, crossings     int
	stopLive, wasEpochOn bool
}

// begin counts the dead slots a round begins with.
func (o *oracle) begin() {
	e := o.e
	o.carried = 0
	for i := range e.lane {
		if e.lane[i].req == nil {
			o.carried++
		}
	}
}

// before runs refCollect on a materialized copy of the lane as collect
// finds it.
func (o *oracle) before() {
	e := o.e
	o.lane = slices.Clone(e.lane)
	for i := range o.lane {
		e.materialize(&o.lane[i])
	}
	fastLimit := e.fastLimit()
	o.avail = e.pool.AvailableBlocks()
	o.stopLive = e.depth == 1 && fastLimit > 0 && e.RunningLen() <= fastLimit && o.avail < len(o.lane)-o.carried
	o.crossings = 0
	for i := range o.lane {
		if o.lane[i].is(slotHot) && o.lane[i].room < 1 {
			o.crossings++
		}
	}
	o.wantItems, o.wantPrefills, o.wantFast, o.wantCrossed = refCollect(e, o.lane, o.carried)
	o.wasEpochOn = e.epochOn
}

// after checks the round collect built against refCollect's.
func (o *oracle) after() {
	o.t.Helper()
	e, rd := o.e, &o.e.rd
	if o.stopLive {
		if e.epochOn {
			o.covered++
		} else {
			o.uncovered++
		}
		if e.epochOn != (o.crossings <= o.avail) {
			o.t.Fatalf("round %d: stop rule live, %d crossings, %d blocks available, epoch lane %v",
				e.RoundsRun(), o.crossings, o.avail, e.epochOn)
		}
	}
	switch {
	case e.epochOn:
		o.epoch++
		o.crossed += o.wantCrossed
		if !o.wasEpochOn {
			o.switches++
		}
		if len(rd.items) > 0 {
			o.due++
		}
		if len(rd.prefills) > 0 {
			o.cold++
		}
	case e.fastLimit() > 0:
		o.fastWalk++
		o.walk++
	default:
		o.walk++
	}
	round := fmt.Sprintf("round %d (epoch lane %v)", e.RoundsRun(), e.epochOn)
	if !slices.Equal(rd.items, o.wantItems) {
		o.t.Fatalf("%s: items %v, walk %v", round, lanes(rd.items), lanes(o.wantItems))
	}
	if !slices.Equal(rd.prefills, o.wantPrefills) {
		o.t.Fatalf("%s: prefills %v, walk %v", round, rd.prefills, o.wantPrefills)
	}
	if rd.fast != o.wantFast {
		o.t.Fatalf("%s: fast %+v, walk %+v", round, rd.fast, o.wantFast)
	}
	if claimed := o.avail - e.pool.AvailableBlocks(); claimed != o.wantCrossed {
		o.t.Fatalf("%s: collect claimed %d blocks for %d crossings", round, claimed, o.wantCrossed)
	}
	for i := range e.lane {
		got := e.lane[i]
		e.materialize(&got)
		want := o.lane[i]
		// Only the epoch bookkeeping may differ.
		got.set(slotRel, false)
		want.set(slotRel, false)
		got.base, got.due, want.base, want.due = 0, 0, 0, 0
		if got != want {
			o.t.Fatalf("%s: slot %d materializes to %+v, walk %+v", round, i, got, want)
		}
	}
}

func lanes(items []batching.Item) []int32 {
	out := make([]int32, len(items))
	for k, it := range items {
		out[k] = it.Lane
	}
	return out
}

// withOracle puts an oracle around the churn engine's collect step, after
// the churn model's own hook. The step before collect is admission, or the
// policy hook on a decode role, which admits nothing.
func withOracle(c *churn) *oracle {
	o := &oracle{t: c.t, e: c.e}
	model := c.e.hook
	c.e.hook = func(step string) {
		model(step)
		switch step {
		case "start":
			o.begin()
		case "policy":
			if c.e.Role() == RoleDecode {
				o.before()
			}
		case "admit":
			o.before()
		case "collect":
			o.after()
		}
	}
	return o
}

// TestEpochLaneMatchesWalk is the epoch lane's property test. Seeded churn
// (admissions, finishes, stalls and unstalls, adoptions, removals and
// preemptions, many in the middle of a live round) runs under a budget
// the running set never exceeds, on pools from tight to roomy, so pool
// pressure turns the stop rule on and off and rounds switch between the
// epoch lane and the walk. Under a live stop rule both branches must run:
// rounds whose block crossings the pool covers stay on the epoch lane, and
// the rest walk with the rule in force. Every round's collect must build
// exactly the round refCollect builds from a materialized copy of the
// lane — items in order, prefills, fast.N and fast.Context — claim one
// block from the pool per crossing it took on the fast path, and leave
// every slot, materialized, as the walk leaves it; epoch rounds must take
// crossings. After every operation the churn model's checks run too,
// CheckLane and the block accounting among them.
func TestEpochLaneMatchesWalk(t *testing.T) {
	var total oracle
	ops := 0
	for seed := int64(1); seed <= 32; seed++ {
		c := newChurn(t, seed, 24+rand.New(rand.NewSource(seed)).Intn(96), 64, false)
		o := withOracle(c)
		for n := 200 + c.rng.Intn(400); n > 0; n-- {
			op := c.step()
			c.check(fmt.Sprintf("seed %d op %d (%s)", seed, ops, op))
			ops++
		}
		c.drainAndExtract()
		total.epoch += o.epoch
		total.walk += o.walk
		total.fastWalk += o.fastWalk
		total.switches += o.switches
		total.due += o.due
		total.cold += o.cold
		total.covered += o.covered
		total.uncovered += o.uncovered
		total.crossed += o.crossed
	}
	if total.epoch == 0 || total.fastWalk == 0 || total.switches < 2 || total.due == 0 || total.cold == 0 || total.crossed == 0 {
		t.Fatalf("%d ops: %+v; the epoch lane was never exercised against the walk", ops, total)
	}
	if total.covered == 0 || total.uncovered == 0 {
		t.Fatalf("%d ops: %d covered and %d uncovered stop-rule rounds; both branches must run",
			ops, total.covered, total.uncovered)
	}
	t.Logf("%d ops: %d epoch rounds (%d entries, %d with due items, %d with prefills, %d under the stop rule, %d fast crossings), "+
		"%d walk rounds (%d with a fast limit, %d under an uncovered stop rule)",
		ops, total.epoch, total.switches, total.due, total.cold, total.covered, total.crossed,
		total.walk, total.fastWalk, total.uncovered)
}
