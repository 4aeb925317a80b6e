package engine

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestRoleSemantics(t *testing.T) {
	cases := []struct {
		role                      Role
		admits, prefills, decodes bool
		name                      string
	}{
		{RoleCollocated, true, true, true, "collocated"},
		{RolePrefill, true, true, false, "prefill"},
		{RoleDecode, false, false, true, "decode"},
	}
	for _, c := range cases {
		if c.role.AdmitsNewArrivals() != c.admits {
			t.Errorf("%v AdmitsNewArrivals = %v", c.role, !c.admits)
		}
		if c.role.RunsPrefill() != c.prefills {
			t.Errorf("%v RunsPrefill = %v", c.role, !c.prefills)
		}
		if c.role.RunsDecode() != c.decodes {
			t.Errorf("%v RunsDecode = %v", c.role, !c.decodes)
		}
		if c.role.String() != c.name {
			t.Errorf("%v String = %q", c.role, c.role.String())
		}
	}
	if !strings.Contains(Role(42).String(), "42") {
		t.Error("unknown role name")
	}
}

// The stage pipeline is role-selected: decode groups run no admission
// stage (their work arrives by handoff adoption), everyone else runs the
// full pipeline in the same order the monolithic loop used.
func TestStagePipelineSelection(t *testing.T) {
	names := func(role Role) []string {
		var out []string
		for _, s := range stagesFor(role) {
			out = append(out, s.name)
		}
		return out
	}
	full := []string{"policy", "admit", "collect", "form", "reserve", "launch"}
	if got := names(RoleCollocated); !reflect.DeepEqual(got, full) {
		t.Errorf("collocated stages = %v", got)
	}
	if got := names(RolePrefill); !reflect.DeepEqual(got, full) {
		t.Errorf("prefill stages = %v", got)
	}
	noAdmit := []string{"policy", "collect", "form", "reserve", "launch"}
	if got := names(RoleDecode); !reflect.DeepEqual(got, noAdmit) {
		t.Errorf("decode stages = %v", got)
	}
}

// The lane's slot stays 80 bytes: its flags, the stalled bit among them,
// share the padding after the counters.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 80 {
		t.Errorf("slot is %d bytes, want 80", n)
	}
}
