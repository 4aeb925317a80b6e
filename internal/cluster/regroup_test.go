package cluster

import (
	"testing"
	"testing/quick"

	"kunserve/internal/request"
	"kunserve/internal/sim"
)

// A merge and the split back round-trip every instance's layers: the merge
// drops each stage to its share, the split restores full copies, and the
// memory managers stay consistent throughout.
func TestRegroupMergeThenSplit(t *testing.T) {
	c := testCluster(t, 2, recomputePolicy{})
	layers := c.Model.Layers
	var merged *Group
	var mergeRemap sim.Duration
	err := c.Regroup(c.Groups(), [][]int{{0, 1}},
		func(groups []*Group, running [][]*request.Request, waiting []*request.Request, remap sim.Duration) {
			if len(running) != 2 || len(waiting) != 0 {
				t.Errorf("idle merge carried %d running lists, %d waiting", len(running), len(waiting))
			}
			merged, mergeRemap = groups[0], remap
		})
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil || len(c.Groups()) != 1 || c.Groups()[0] != merged {
		t.Fatalf("groups after merge = %v", c.Groups())
	}
	if mergeRemap <= 0 {
		t.Errorf("merge remap = %v, want > 0", mergeRemap)
	}
	shares := splitLayers(layers, 2)
	for i, in := range merged.Instances() {
		if in.LayersHeld() != shares[i] {
			t.Errorf("stage %d holds %d layers, want %d", i, in.LayersHeld(), shares[i])
		}
	}

	var split []*Group
	if err := c.Regroup([]*Group{merged}, [][]int{{0}, {1}},
		func(groups []*Group, _ [][]*request.Request, _ []*request.Request, _ sim.Duration) {
			split = groups
		}); err != nil {
		t.Fatal(err)
	}
	if len(split) != 2 || len(c.Groups()) != 2 {
		t.Fatalf("split formed %d groups, %d live", len(split), len(c.Groups()))
	}
	for _, in := range c.Instances {
		if !in.HoldsFullCopy() {
			t.Errorf("instance %d holds %d of %d layers after the split", in.ID, in.LayersHeld(), layers)
		}
		if err := in.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// Regroup refuses a closed or draining group, or a bad shape, before it
// drains anything: a second drain would replace the first caller's
// callback.
func TestRegroupRejectsClosedOrDraining(t *testing.T) {
	c := testCluster(t, 3, recomputePolicy{})
	gs := c.Groups()
	gs[0].Drain(func() {})
	if err := c.Regroup([]*Group{gs[1], gs[0]}, [][]int{{0, 1}}, nil); err == nil {
		t.Error("regroup of a draining group accepted")
	}
	if gs[1].Draining() {
		t.Error("a refused regroup drained a group")
	}
	gs[2].ExtractRequests()
	if err := c.Regroup([]*Group{gs[2]}, [][]int{{2}}, nil); err == nil {
		t.Error("regroup of a closed group accepted")
	}
	tooWide := make([]int, c.Model.Layers+1)
	for _, shape := range [][]int{{}, {3}, {-1}, tooWide} {
		if err := c.Regroup([]*Group{gs[1]}, [][]int{shape}, nil); err == nil {
			t.Errorf("shape %v accepted", shape)
		}
	}
	if gs[1].Draining() {
		t.Error("a refused regroup drained a group")
	}
}

func TestSplitLayers(t *testing.T) {
	cases := []struct {
		layers, n int
		want      []int
	}{
		{48, 2, []int{24, 24}},
		{48, 3, []int{16, 16, 16}},
		{7, 2, []int{4, 3}},
		{7, 7, []int{1, 1, 1, 1, 1, 1, 1}},
		{80, 3, []int{27, 27, 26}},
	}
	for _, c := range cases {
		got := splitLayers(c.layers, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("splitLayers(%d,%d) = %v", c.layers, c.n, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("splitLayers(%d,%d) = %v, want %v", c.layers, c.n, got, c.want)
			}
		}
	}
}

func TestSplitLayersPanics(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {4, 0}, {2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("splitLayers(%d,%d) did not panic", c[0], c[1])
				}
			}()
			splitLayers(c[0], c[1])
		}()
	}
}

// Property: splitLayers conserves layers and is balanced within one.
func TestPropertySplitLayers(t *testing.T) {
	f := func(l8, n8 uint8) bool {
		layers := 1 + int(l8)
		n := 1 + int(n8)%layers
		parts := splitLayers(layers, n)
		sum, min, max := 0, layers, 0
		for _, p := range parts {
			sum += p
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		return sum == layers && max-min <= 1 && min >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
