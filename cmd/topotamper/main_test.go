package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFleetRejectsSingleRunOptions pins that a fleet (-trials > 1)
// refuses the options only a single run records, instead of silently
// ignoring them, and that it fails before creating any output file.
func TestFleetRejectsSingleRunOptions(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flag  string
		value string
	}{
		{"trace", filepath.Join(dir, "t.jsonl")},
		{"pcap", filepath.Join(dir, "t.pcap")},
		{"dot", filepath.Join(dir, "t.dot")},
		{"tapframes", "5"},
		{"chaos", "disconnect"},
	} {
		err := run([]string{"-trials", "2", "-" + tc.flag, tc.value})
		if err == nil {
			t.Fatalf("-trials 2 -%s %s: no error", tc.flag, tc.value)
		}
		if !strings.Contains(err.Error(), "-"+tc.flag+" is a single-run option") {
			t.Fatalf("-trials 2 -%s: err = %q", tc.flag, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("rejected fleets left files behind: %v, %v", entries, err)
	}
}

// TestIndent pins indent's output, including the edge cases of empty
// input, a trailing newline and blank lines.
func TestIndent(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"a", "  a\n"},
		{"a\n", "  a\n"},
		{"a\n\nb", "  a\n  \n  b\n"},
		{"a\n\n", "  a\n  \n"},
	} {
		if got := indent(tc.in); got != tc.want {
			t.Errorf("indent(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
