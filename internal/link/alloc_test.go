//go:build !race

// Allocation assertions, excluded under the race detector, whose
// instrumentation adds allocations that are not present in normal builds.

package link

import (
	"testing"
	"time"

	"sdntamper/internal/sim"
)

// TestChannelSendAfterCopiesOnce: SendAfter copies the message once and
// the scheduled send takes that copy over, so on a warm channel a
// SendAfter and its delivery allocate the copy and the scheduled closure
// only; a Send and its delivery allocate the copy alone.
func TestChannelSendAfterCopiesOnce(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(time.Millisecond))
	c.OnReceive(EndB, func([]byte) {})
	msg := make([]byte, 64)
	for _, tc := range []struct {
		name string
		send func()
		max  float64
	}{
		{"Send", func() { c.Send(EndA, msg) }, 1},
		{"SendAfter", func() { c.SendAfter(EndA, time.Millisecond, msg) }, 2},
	} {
		round := func() {
			tc.send()
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
		round() // warm the delivery free list and the event queue
		if allocs := testing.AllocsPerRun(100, round); allocs > tc.max {
			t.Errorf("%s and its delivery: %v allocs, want <= %v", tc.name, allocs, tc.max)
		}
	}
}
