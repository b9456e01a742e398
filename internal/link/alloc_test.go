//go:build !race

// Allocation assertions, excluded under the race detector, whose
// instrumentation adds allocations that are not present in normal builds.

package link

import (
	"testing"
	"time"

	"sdntamper/internal/sim"
)

// TestChannelSendAllocatesNothing: on a warm channel a Send or a
// SendAfter copies the message into a recycled delivery's buffer and
// schedules a named function, so neither the send nor its delivery
// allocates.
func TestChannelSendAllocatesNothing(t *testing.T) {
	k := sim.New()
	c := NewChannel(k, sim.Const(time.Millisecond))
	c.OnReceive(EndB, func([]byte) {})
	msg := make([]byte, 64)
	for _, tc := range []struct {
		name string
		send func()
	}{
		{"Send", func() { c.Send(EndA, msg) }},
		{"SendAfter", func() { c.SendAfter(EndA, time.Millisecond, msg) }},
	} {
		round := func() {
			tc.send()
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
		round() // warm the delivery free list and the event queue
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%s and its delivery: %v allocs, want 0", tc.name, allocs)
		}
	}
}
