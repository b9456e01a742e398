//go:build !race

// Steady-state allocation assertions, excluded under the race detector,
// whose instrumentation adds allocations of its own.

package lldp

import (
	"testing"
	"time"
)

// TestSignerZeroAlloc: once warm, a signer seals, signs, verifies and
// opens a timestamped probe without allocating, the per-probe cost a
// TopoGuard+ controller pays on every discovery round.
func TestSignerZeroAlloc(t *testing.T) {
	k, err := NewKeychain([]byte("alloc"))
	if err != nil {
		t.Fatal(err)
	}
	s := k.NewSigner()
	now := time.Unix(1700000000, 0)
	var f Frame
	probe := func() {
		f = Frame{ChassisID: 7, PortID: 3, TTLSecs: 120}
		f.Timestamp = s.SealTimestamp(now)
		s.Sign(&f)
		if err := s.Verify(&f); err != nil {
			t.Fatal(err)
		}
		if got, err := s.OpenTimestamp(f.Timestamp); err != nil || !got.Equal(now) {
			t.Fatalf("opened %v, %v; want %v", got, err, now)
		}
	}
	probe() // warm the hash state and scratch
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Fatalf("sign+verify of a timestamped probe allocates %.1f objects, want 0", allocs)
	}
}
