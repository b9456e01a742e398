package controller

import (
	"testing"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/sim"
)

// Allocation gates for the discovery path. OFDP costs one PacketOut per
// port and one PacketIn per link direction per round, so at fat-tree
// scale any per-message object is multiplied by thousands of probes a
// round.

// TestEvictOneLinkAllocatesOnce evicts one link from a k=16-sized link
// table (4096 directed links) through each eviction path. The only
// allocation left is the link-removed event's detail string; the
// eviction must not size anything by the whole table.
func TestEvictOneLinkAllocatesOnce(t *testing.T) {
	k := sim.New()
	c := New(k)
	t.Cleanup(c.Shutdown)
	now := k.Now()
	var target Link
	for dpid := uint64(1); dpid <= 256; dpid++ {
		for port := uint32(1); port <= 16; port++ {
			l := Link{Src: PortRef{DPID: dpid, Port: port}, Dst: PortRef{DPID: 1000 + dpid, Port: port}}
			c.ImportLink(l, now)
			if dpid == 128 && port == 8 {
				target = l
			}
		}
	}
	for _, tc := range []struct {
		name  string
		evict func()
	}{
		{"RemoveLink", func() { c.RemoveLink(target) }},
		{"sweep", func() { c.removeLinksMatching(func(l Link) bool { return l == target }, "timeout") }},
	} {
		tc.evict() // the first eviction sizes the controller's scratch
		allocs := testing.AllocsPerRun(20, func() {
			c.ImportLink(target, now)
			tc.evict()
		})
		if c.HasLink(target) {
			t.Fatalf("%s: link not evicted", tc.name)
		}
		if allocs > 1 {
			t.Errorf("%s: evicting one of %d links allocates %v objects, want at most 1",
				tc.name, len(c.links)+1, allocs)
		}
	}
}

// TestLLDPRoundTripAllocations drives one whole LLDP round trip — the
// controller emits a probe, the PacketOut crosses the control channel,
// the switch forwards it over a trunk, the far switch punts it back as a
// PacketIn and the controller accepts the link — and requires it to
// allocate nothing: link.Channel.Send copies each message into a
// recycled delivery buffer, and every decoder downstream works in place
// on that copy.
func TestLLDPRoundTripAllocations(t *testing.T) {
	k, c := twoSwitchTrunk(t)
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	l := Link{Src: PortRef{DPID: 1, Port: 1}, Dst: PortRef{DPID: 2, Port: 1}}
	if !c.HasLink(l) {
		t.Fatal("trunk not discovered by the connect-time probes")
	}
	roundTrip := func() {
		c.emitLLDP(1, 1)
		if err := k.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the scratch buffers
	allocs := testing.AllocsPerRun(50, roundTrip)
	if seen := c.links[l]; k.Now().Sub(seen) > 100*time.Millisecond {
		t.Fatalf("link last refreshed at %v, now %v: the probes did not return", seen, k.Now())
	}
	if allocs != 0 {
		t.Errorf("one LLDP round trip allocates %v objects, want 0", allocs)
	}
}

// twoSwitchTrunk connects a controller to two switches joined by a
// trunk on port 1 of each.
func twoSwitchTrunk(t *testing.T) (*sim.Kernel, *Controller) {
	t.Helper()
	k := sim.New()
	c := New(k)
	t.Cleanup(c.Shutdown)
	trunk := link.NewLink(k, sim.Const(time.Millisecond))
	for i, dpid := range []uint64{1, 2} {
		sw := dataplane.NewSwitch(k, dpid)
		t.Cleanup(sw.Shutdown)
		sw.AddPort(1, trunk, [2]link.End{link.EndA, link.EndB}[i], nil)
		ch := link.NewChannel(k, sim.Const(time.Millisecond))
		sw.SetControlSender(func(b []byte) { ch.Send(link.EndA, b) })
		ch.OnReceive(link.EndA, sw.HandleControl)
		conn := c.Connect(func(b []byte) { ch.Send(link.EndB, b) })
		ch.OnReceive(link.EndB, conn.Handle)
	}
	return k, c
}

// TestControlRTTProbeAllocations drives one control-RTT probe — the
// PacketOut carrying the marker frame, the switch bouncing it back as a
// PacketIn, and the controller resolving it — and requires it to
// allocate nothing, as for an LLDP round trip: the marker frame is built
// in controller scratch, both control messages are copied into recycled
// delivery buffers, the pending record is recycled and the timeout is
// scheduled closure-free. TopoGuard+'s LLI sends one such probe per
// switch every 2 s.
func TestControlRTTProbeAllocations(t *testing.T) {
	k, c := twoSwitchTrunk(t)
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	resolved := 0
	cb := func(rtt time.Duration, ok bool) {
		if ok && rtt > 0 {
			resolved++
		}
	}
	probe := func() {
		c.MeasureControlRTT(1, time.Second, cb)
		if err := k.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	probe() // warm the scratch buffers and the record free list
	allocs := testing.AllocsPerRun(50, probe)
	if resolved != 52 {
		t.Fatalf("%d of 52 probes resolved", resolved)
	}
	if n := c.PendingProbes().PathProbes; n != 0 {
		t.Fatalf("%d probes left pending", n)
	}
	if allocs != 0 {
		t.Errorf("one control-RTT probe allocates %v objects, want 0", allocs)
	}
}
