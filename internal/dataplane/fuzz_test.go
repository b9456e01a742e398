package dataplane

import (
	"testing"
	"testing/quick"
	"time"

	"sdntamper/internal/link"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// TestHostReceiveNeverPanics delivers arbitrary bytes to a host NIC.
func TestHostReceiveNeverPanics(t *testing.T) {
	k := sim.New()
	l := link.NewLink(k, nil)
	h := NewHost(k, "h", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndA)
	h.Promiscuous = true
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		h.ReceiveFrame(link.NewFrame(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchControlNeverPanics delivers arbitrary bytes to the switch's
// control channel handler.
func TestSwitchControlNeverPanics(t *testing.T) {
	k := sim.New()
	sw := NewSwitch(k, 1)
	defer sw.Shutdown()
	sw.SetControlSender(func([]byte) {})
	l := link.NewLink(k, nil)
	sw.AddPort(1, l, link.EndA, nil)
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		sw.HandleControl(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchDataplaneNeverPanics delivers arbitrary frames to a switch
// port (table miss punts them to the controller; garbage must not crash
// field extraction).
func TestSwitchDataplaneNeverPanics(t *testing.T) {
	k := sim.New()
	sw := NewSwitch(k, 1)
	defer sw.Shutdown()
	var punted int
	sw.SetControlSender(func([]byte) { punted++ })
	l := link.NewLink(k, nil)
	sw.AddPort(1, l, link.EndA, nil)
	port := sw.Port(1)
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		port.ReceiveFrame(link.NewFrame(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	if punted == 0 {
		t.Fatal("no frames punted; harness broken")
	}
}

// TestRapidInterfaceFlapsStayConsistent hammers the port state machine
// with randomized flap timings and checks the switch's final view settles
// to the host's final state.
func TestRapidInterfaceFlapsStayConsistent(t *testing.T) {
	f := func(holds []uint16) bool {
		if len(holds) == 0 || len(holds) > 40 {
			return true
		}
		k := sim.New(sim.WithSeed(int64(len(holds))))
		sw := NewSwitch(k, 1)
		defer sw.Shutdown()
		sw.SetControlSender(func([]byte) {})
		l := link.NewLink(k, sim.Const(time.Millisecond))
		sw.AddPort(1, l, link.EndA, nil)
		h := NewHost(k, "h", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndB)
		at := time.Duration(0)
		for _, raw := range holds {
			hold := time.Duration(raw%50) * time.Millisecond
			at += time.Millisecond
			k.Schedule(at, h.InterfaceDown)
			at += hold
			k.Schedule(at, h.InterfaceUp)
		}
		if err := k.RunFor(at + time.Second); err != nil {
			t.Error(err)
			return false
		}
		return sw.Port(1).Up() // host ends up; switch must agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
