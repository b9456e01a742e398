package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
)

// wireWatch retains every frame its tapped hosts receive, each next to a
// private copy taken on arrival. Dataplane frames are immutable once on
// the wire — links and switches hand the same bytes to every hop and
// every flood egress — so a retained frame that no longer equals its
// copy proves something wrote into a shared wire frame: a switch, a host
// handler, a tap or an attack relay. Each host keeps its own list, so
// hosts on different shard goroutines never share observer state and
// the observer adds no synchronization that could hide a data race.
type wireWatch struct {
	hosts []*hostWatch
}

type hostWatch struct {
	name   string
	frames []retainedFrame
}

type retainedFrame struct {
	raw, own []byte
}

// tap chains the observer in front of h's current OnFrame hook, the way
// trace.TapHost does: it records and never consumes. A host whose hook
// an attack replaces later must be tapped again after that.
func (w *wireWatch) tap(name string, h *dataplane.Host) {
	hw := &hostWatch{name: name}
	w.hosts = append(w.hosts, hw)
	prev := h.OnFrame
	h.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		hw.frames = append(hw.frames, retainedFrame{raw: raw, own: append([]byte(nil), raw...)})
		if prev != nil {
			return prev(eth, raw)
		}
		return false
	}
}

// count reports the retained frames of one EtherType.
func (hw *hostWatch) count(typ packet.EtherType) int {
	n := 0
	for _, f := range hw.frames {
		if eth, err := packet.DecodeEthernet(f.own); err == nil && eth.Type == typ {
			n++
		}
	}
	return n
}

// check asserts every retained frame is unchanged and that at least min
// frames were observed, so the check cannot pass vacuously.
func (w *wireWatch) check(t *testing.T, min int) {
	t.Helper()
	n := 0
	for _, hw := range w.hosts {
		for i, f := range hw.frames {
			if !bytes.Equal(f.raw, f.own) {
				t.Fatalf("%s: frame %d was written after delivery:\n got %x\nwant %x", hw.name, i, f.raw, f.own)
			}
		}
		n += len(hw.frames)
	}
	if n < min {
		t.Fatalf("observed %d frames, want at least %d", n, min)
	}
}

// fig9Hosts lists the Figure 9 testbed's hosts.
var fig9Hosts = []string{HostClient, HostAttackerA, HostAttackerB, HostServer}

// TestWireFramesImmutable runs the full-stack Figure 9 testbed through
// the in-band amnesia fabrication and the SYN flood, and the k=4
// link-saturation flood at 2 shards executing in parallel (where flooded
// frames cross shard goroutines), with every host's received frames
// retained to the end. Under -race, a write that overlaps another
// shard's read of the same frame is also reported as a data race.
func TestWireFramesImmutable(t *testing.T) {
	t.Run("fig9-inband-amnesia", func(t *testing.T) {
		s := NewFig9Testbed(3, FullStack())
		defer s.Close()
		var w wireWatch
		for _, name := range fig9Hosts {
			w.tap(name, s.Host(name))
		}
		// The LLI calibration period, as inBandCell runs it.
		if err := s.Run(62 * time.Second); err != nil {
			t.Fatal(err)
		}
		fab := attack.NewInBandFabrication(s.Net.Kernel, s.Host(HostAttackerA), s.Host(HostAttackerB), 0)
		fab.Start()
		// Start replaced the colluding hosts' hooks with the relays.
		w.tap(HostAttackerA+"/relay", s.Host(HostAttackerA))
		w.tap(HostAttackerB+"/relay", s.Host(HostAttackerB))
		if err := s.Run(50 * time.Second); err != nil {
			t.Fatal(err)
		}
		if a, b := fab.Cycles(); a+b == 0 {
			t.Fatal("the relays never ran an amnesia cycle")
		}
		// Both relays must have captured probes, which they tunnel to
		// their peer while holding on to the captured wire frame.
		for _, hw := range w.hosts[len(fig9Hosts):] {
			if hw.count(packet.EtherTypeLLDP) == 0 {
				t.Fatalf("%s captured no LLDP probe", hw.name)
			}
		}
		w.check(t, 40)
	})

	t.Run("fig9-syn-flood", func(t *testing.T) {
		def := FullStack()
		cfg := DoSRateMonConfig(attack.SYNFlood)
		def.RateMonConfig = &cfg
		s := NewFig9Testbed(5, def)
		defer s.Close()
		var w wireWatch
		for _, name := range fig9Hosts {
			w.tap(name, s.Host(name))
		}
		if _, err := runFlood(s, attack.SYNFlood, 5); err != nil {
			t.Fatal(err)
		}
		w.check(t, 1000)
	})

	t.Run("k4-link-saturation-2-shards-parallel", func(t *testing.T) {
		const k = 4
		def := FullStack()
		cfg := DoSRateMonConfig(attack.LinkSaturation)
		def.RateMonConfig = &cfg
		s, topo := NewShardedFatTreeScenario(7, k, 2, def)
		defer s.Close()
		s.Net.SetParallel(true)
		var w wireWatch
		for _, name := range topo.HostNames {
			w.tap(name, s.Net.Host(name))
		}
		if err := s.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		victim := s.Net.Host("p0-e0-h0")
		var attackers []*dataplane.Host
		for pod := 1; pod < k; pod++ {
			for e := 0; e < k/2; e++ {
				attackers = append(attackers, s.Net.Host(fmt.Sprintf("p%d-e%d-h0", pod, e)))
			}
		}
		for _, h := range attackers {
			h.ARPPing(victim.IP(), 4*time.Second, func(dataplane.ProbeResult) {})
		}
		if err := s.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		flood := attack.NewDoS(attackers, victim.MAC(), victim.IP(),
			attack.DoSConfig{Variant: attack.LinkSaturation, Seed: 7, PacketsPerSec: 1000})
		flood.Announce()
		rxBefore := victim.RxFrames()
		flood.Start()
		if err := s.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		flood.Stop()
		if err := s.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if victim.RxFrames()-rxBefore < 1000 {
			t.Fatalf("victim received %d flood frames", victim.RxFrames()-rxBefore)
		}
		w.check(t, 1000)
	})
}
