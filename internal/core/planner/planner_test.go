package planner

import (
	"errors"
	"testing"
	"testing/quick"
)

func singletons(n int) []GroupState {
	out := make([]GroupState, n)
	for i := range out {
		out[i] = GroupState{ID: i, Size: 1}
	}
	return out
}

func TestZeroRequirementIsIdentity(t *testing.T) {
	p, err := Derive(singletons(4), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreedBytes != 0 || len(p.Merges) != 4 || len(p.Changed()) != 0 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestSingleMergeFreesOneCopy(t *testing.T) {
	p, err := Derive(singletons(4), 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreedBytes != 100 {
		t.Fatalf("freed = %d", p.FreedBytes)
	}
	changed := p.Changed()
	if len(changed) != 1 || len(changed[0].GroupIDs) != 2 || changed[0].Size != 2 {
		t.Fatalf("changed = %+v", changed)
	}
	if len(p.Merges) != 3 {
		t.Fatalf("output groups = %d, want 3", len(p.Merges))
	}
}

// The paper's worked example: group sizes 1, 2, 3 — the 1 and 2 merge
// first.
func TestMergesSmallestGroupsFirst(t *testing.T) {
	groups := []GroupState{{ID: 10, Size: 3}, {ID: 11, Size: 1}, {ID: 12, Size: 2}}
	p, err := Derive(groups, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	changed := p.Changed()
	if len(changed) != 1 {
		t.Fatalf("changed = %+v", changed)
	}
	got := changed[0].GroupIDs
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("merged %v, want [11 12]", got)
	}
	if changed[0].Size != 3 {
		t.Fatalf("merged size = %d", changed[0].Size)
	}
}

func TestIterativeMergingUntilSatisfied(t *testing.T) {
	// Needing 2.5 copies freed from 8 singletons: three merges.
	p, err := Derive(singletons(8), 100, 250)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreedBytes != 300 {
		t.Fatalf("freed = %d", p.FreedBytes)
	}
	// Three merges among 8 singletons leave 5 groups.
	if len(p.Merges) != 5 {
		t.Fatalf("groups = %d, want 5", len(p.Merges))
	}
	// Greedy pairwise merging of smallest: sizes after are 2,2,2,1,1.
	sizes := map[int]int{}
	for _, m := range p.Merges {
		sizes[m.Size]++
	}
	if sizes[2] != 3 || sizes[1] != 2 {
		t.Fatalf("size histogram = %v", sizes)
	}
}

func TestInfeasibleReturnsBestEffort(t *testing.T) {
	p, err := Derive(singletons(3), 100, 1000)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	if p == nil {
		t.Fatal("no best-effort plan")
	}
	// Everything merged into one group of 3, freeing 2 copies.
	if p.FreedBytes != 200 || len(p.Merges) != 1 || p.Merges[0].Size != 3 {
		t.Fatalf("best effort = %+v", p)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Derive(nil, 100, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Derive(singletons(2), 0, 1); err == nil {
		t.Error("zero param bytes accepted")
	}
	if _, err := Derive([]GroupState{{ID: 0, Size: 0}}, 100, 1); err == nil {
		t.Error("zero-size group accepted")
	}
	if _, err := Derive([]GroupState{{ID: 0, Size: 1}, {ID: 0, Size: 1}}, 100, 1); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestPlanCoversAllGroups(t *testing.T) {
	groups := []GroupState{{ID: 3, Size: 2}, {ID: 7, Size: 1}, {ID: 9, Size: 4}, {ID: 12, Size: 1}}
	p, err := Derive(groups, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	total := 0
	for _, m := range p.Merges {
		for _, id := range m.GroupIDs {
			if seen[id] {
				t.Fatalf("group %d appears twice", id)
			}
			seen[id] = true
		}
		total += m.Size
	}
	if len(seen) != 4 || total != 8 {
		t.Fatalf("coverage: %v, total size %d", seen, total)
	}
}

// Property: freed bytes always equal (inputGroups - outputGroups) copies,
// instance counts are conserved, and the plan meets the requirement
// whenever it is feasible.
func TestPropertyPlanAccounting(t *testing.T) {
	f := func(sizes []uint8, req16 uint16) bool {
		var groups []GroupState
		totalInstances := 0
		for i, s := range sizes {
			size := 1 + int(s)%4
			groups = append(groups, GroupState{ID: i, Size: size})
			totalInstances += size
		}
		if len(groups) == 0 {
			return true
		}
		const copyBytes = 1000
		required := int64(req16) % (copyBytes * 10)
		p, err := Derive(groups, copyBytes, required)
		if err != nil && !errors.Is(err, ErrInfeasible) {
			return false
		}
		feasible := required <= copyBytes*int64(len(groups)-1)
		if feasible && err != nil {
			return false
		}
		if !feasible && err == nil {
			return false
		}
		wantFreed := int64(len(groups)-len(p.Merges)) * copyBytes
		if p.FreedBytes != wantFreed {
			return false
		}
		out := 0
		for _, m := range p.Merges {
			out += m.Size
		}
		if out != totalInstances {
			return false
		}
		if err == nil && p.FreedBytes < required {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
