package core_test

import (
	"slices"
	"strings"
	"testing"

	"sdntamper/internal/core"
)

// TestParseDefenses pins the stack name table both command-line tools
// accept: every name, alias included, resolves to its stack, the usage
// text lists exactly these names, and an unknown name is rejected with
// the accepted ones in the error.
func TestParseDefenses(t *testing.T) {
	tgPlus := core.Defenses{TopoGuard: true, CMM: true, LLI: true}
	full := core.Defenses{TopoGuard: true, CMM: true, LLI: true, RateMon: true}
	cases := []struct {
		name string
		want core.Defenses
	}{
		{"none", core.Defenses{}},
		{"topoguard", core.Defenses{TopoGuard: true}},
		{"sphinx", core.Defenses{Sphinx: true}},
		{"both", core.Defenses{TopoGuard: true, Sphinx: true}},
		{"topoguard+", tgPlus},
		{"tgplus", tgPlus},
		{"ratemon", core.Defenses{RateMon: true}},
		{"full", full},
		{"fullstack", full},
	}
	var names []string
	for _, tc := range cases {
		got, err := core.ParseDefenses(tc.name)
		if err != nil {
			t.Errorf("ParseDefenses(%q): %v", tc.name, err)
		} else if got != tc.want {
			t.Errorf("ParseDefenses(%q) = %+v, want %+v", tc.name, got, tc.want)
		}
		names = append(names, tc.name)
	}
	listed := strings.FieldsFunc(core.DefenseNames(), func(r rune) bool { return r == ',' || r == '|' || r == ' ' })
	if !slices.Equal(listed, names) {
		t.Errorf("DefenseNames() = %q, want the names %v", core.DefenseNames(), names)
	}
	for _, name := range []string{"", "topoguard++", "TopoGuard", "full stack"} {
		_, err := core.ParseDefenses(name)
		if err == nil || !strings.Contains(err.Error(), core.DefenseNames()) {
			t.Errorf("ParseDefenses(%q): err = %v, want one listing %q", name, err, core.DefenseNames())
		}
	}
}
