//go:build !race

// Allocation assertions, excluded under the race detector, whose
// instrumentation adds allocations that are not present in normal builds.

package softdp

import (
	"testing"
	"time"
)

// TestJitterAllocatesNothing pins that deriving a timer's jitter builds
// the MixSeed input on the stack: the manager arms one jittered timer per
// probe, refresh and detection.
func TestJitterAllocatesNothing(t *testing.T) {
	m := NewManager(7, Config{}, Hooks{})
	s := &session{link: Link{Src: Port{DPID: 1, No: 2}, Dst: Port{DPID: 3, No: 4}}, interval: time.Second}
	var sink time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		sink += m.linkJitter(s.interval, jitterTagRefresh, s)
		sink += m.jitter(time.Second, jitterTagProbe, 1, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("jitter allocates %v objects per call pair, want 0", allocs)
	}
	if sink <= 0 {
		t.Fatal("jitter returned no delay")
	}
}
