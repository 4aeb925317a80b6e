package sched

import (
	"math/rand"
	"testing"
)

// argmin is the dispatch oracle: the candidate minimizing (Key, ID),
// found by a plain scan. It returns -1 for an empty slate.
func argmin(r Router, cs []Candidate) int {
	best, bestKey := -1, 0.0
	for _, c := range cs {
		k := r.Key(c)
		if best < 0 || k < bestKey || (k == bestKey && c.ID < best) {
			best, bestKey = c.ID, k
		}
	}
	return best
}

func TestIndexBasicOps(t *testing.T) {
	x := NewIndex(NewQueueDepth())
	if _, ok := x.Min(); ok {
		t.Fatal("empty index has a min")
	}
	x.Update(Candidate{ID: 3, QueueLen: 30, CapacityTokens: 100})
	x.Update(Candidate{ID: 1, QueueLen: 50, CapacityTokens: 100})
	x.Update(Candidate{ID: 2, QueueLen: 30, CapacityTokens: 100})
	if id, _ := x.Min(); id != 2 {
		t.Fatalf("Min = %d, want 2 (key tie broken by lowest ID)", id)
	}
	// Repositioning under a new key.
	x.Update(Candidate{ID: 1, QueueLen: 5, CapacityTokens: 100})
	if id, _ := x.Min(); id != 1 {
		t.Fatalf("Min after update = %d, want 1", id)
	}
	if k, ok := x.Key(1); !ok || k != 5 {
		t.Fatalf("Key(1) = %v, %v; want 5, true", k, ok)
	}
	x.Remove(1)
	x.Remove(99) // unknown IDs are a no-op
	if id, _ := x.Min(); id != 2 {
		t.Fatalf("Min after remove = %d, want 2", id)
	}
	if _, ok := x.Key(1); ok {
		t.Fatal("removed ID still has a key")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
}

// oracleGroup is one simulated group's routing-visible state.
type oracleGroup struct {
	c      Candidate
	active bool
}

// TestIndexMatchesScanOracle is the dispatch-equivalence property test:
// over randomized demand/queue/capacity/close/role-change sequences on a
// 512-group fleet, each router's incrementally maintained index must pick
// exactly what argmin finds by scanning the active slate, at every step.
func TestIndexMatchesScanOracle(t *testing.T) {
	const nGroups = 512
	routers := []Router{NewLeastLoaded(), NewQueueDepth()}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))

		groups := make([]oracleGroup, nGroups)
		indexes := make([]*Index, len(routers))
		for i, r := range routers {
			indexes[i] = NewIndex(r)
		}
		update := func(g *oracleGroup) {
			for _, x := range indexes {
				x.Update(g.c)
			}
		}
		for i := range groups {
			groups[i] = oracleGroup{
				c: Candidate{
					ID:             i,
					DemandTokens:   rng.Intn(50_000),
					CapacityTokens: 1 + rng.Intn(200_000),
					QueueLen:       rng.Intn(32),
				},
				active: true,
			}
			update(&groups[i])
		}

		var slate []Candidate
		for step := 0; step < 3000; step++ {
			g := &groups[rng.Intn(nGroups)]
			switch op := rng.Intn(12); {
			case op == 0: // close or role change away from arrivals
				if g.active {
					g.active = false
					for _, x := range indexes {
						x.Remove(g.c.ID)
					}
				}
			case op == 1: // (re)join the candidate set
				if !g.active {
					g.active = true
					update(g)
				}
			case op == 2: // reconfiguration resizes the pool
				g.c.CapacityTokens = 1 + rng.Intn(200_000)
				if g.active {
					update(g)
				}
			default: // demand/queue churn (enqueue, admit, finish, growth)
				g.c.DemandTokens += rng.Intn(4000) - 1500
				if g.c.DemandTokens < 0 {
					g.c.DemandTokens = 0
				}
				g.c.QueueLen += rng.Intn(5) - 2
				if g.c.QueueLen < 0 {
					g.c.QueueLen = 0
				}
				if g.active {
					update(g)
				}
			}

			slate = slate[:0]
			for i := range groups {
				if groups[i].active {
					slate = append(slate, groups[i].c)
				}
			}
			if len(slate) == 0 {
				continue
			}
			for i, r := range routers {
				want := argmin(r, slate)
				got, ok := indexes[i].Min()
				if !ok {
					t.Fatalf("seed %d step %d: %s index empty with %d active",
						seed, step, r.Name(), len(slate))
				}
				if got != want {
					t.Fatalf("seed %d step %d: %s index picked %d, scan picked %d",
						seed, step, r.Name(), got, want)
				}
				if indexes[i].Len() != len(slate) {
					t.Fatalf("seed %d step %d: %s index holds %d of %d active",
						seed, step, r.Name(), indexes[i].Len(), len(slate))
				}
			}
		}
	}
}
