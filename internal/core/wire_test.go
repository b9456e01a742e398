package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/netsim"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
)

// wireWatch checks that nothing writes a wire frame while a host is
// handling it. Each wire frame has one owner and is valid only until the
// receiving host releases it, so the observer copies every frame on
// arrival, runs the rest of the host's hook chain, and then compares the
// frame with its copy: a difference proves a hook or an attack relay
// wrote into a delivered frame. It also checks the match tuple the frame
// carries from the switches it crossed against a fresh parse of its
// bytes. Frames are released back to a pool once the host is done; in
// race-detector builds a released frame's bytes are overwritten, so a
// holder that kept one past its delivery would also break the scenario.
// Each host keeps its own state, so hosts on different shard goroutines
// never share observer state and the observer adds no synchronization
// that could hide a data race.
type wireWatch struct {
	hosts []*hostWatch
	rx    map[*dataplane.Host]*hostRx
}

// hostRx stands in for a host on its access link, so the observer can
// reach the wire frame being delivered; the host's hooks see only its
// bytes.
type hostRx struct {
	*dataplane.Host
	cur *link.Frame
}

func (r *hostRx) ReceiveFrame(f *link.Frame) {
	r.cur = f
	r.Host.ReceiveFrame(f)
	r.cur = nil
}

type hostWatch struct {
	name   string
	frames int
	lldp   int
	own    []byte // the copy of the frame being delivered
	bad    string // the first frame found written, if any
}

// tap chains the observer in front of the named host's current OnFrame
// hook, the way trace.TapHost does: it observes and never consumes. A
// host whose hook an attack replaces later must be tapped again after
// that, under a new label.
func (w *wireWatch) tap(n *netsim.Network, name, label string) {
	h := n.Host(name)
	rx := w.rx[h]
	if rx == nil {
		rx = &hostRx{Host: h}
		n.HostLink(name).Attach(link.EndB, rx)
		if w.rx == nil {
			w.rx = map[*dataplane.Host]*hostRx{}
		}
		w.rx[h] = rx
	}
	hw := &hostWatch{name: label}
	w.hosts = append(w.hosts, hw)
	prev := h.OnFrame
	h.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		hw.own = append(hw.own[:0], raw...)
		if eth.Type == packet.EtherTypeLLDP {
			hw.lldp++
		}
		consumed := prev != nil && prev(eth, raw)
		if hw.bad == "" && !bytes.Equal(raw, hw.own) {
			hw.bad = fmt.Sprintf("frame %d was written during delivery:\n got %x\nwant %x", hw.frames, raw, hw.own)
		}
		for _, p := range [2]uint32{1, 2} {
			if got, want := rx.cur.Fields(p), openflow.ExtractFields(p, raw); hw.bad == "" && got != want {
				hw.bad = fmt.Sprintf("frame %d carries tuple %+v, want %+v", hw.frames, got, want)
			}
		}
		hw.frames++
		return consumed
	}
}

// check asserts no observed frame was written during delivery and that
// at least min frames were observed, so the check cannot pass vacuously.
func (w *wireWatch) check(t *testing.T, min int) {
	t.Helper()
	n := 0
	for _, hw := range w.hosts {
		if hw.bad != "" {
			t.Fatalf("%s: %s", hw.name, hw.bad)
		}
		n += hw.frames
	}
	if n < min {
		t.Fatalf("observed %d frames, want at least %d", n, min)
	}
}

// fig9Hosts lists the Figure 9 testbed's hosts.
var fig9Hosts = []string{HostClient, HostAttackerA, HostAttackerB, HostServer}

// TestWireFramesImmutable runs the full-stack Figure 9 testbed through
// the in-band amnesia fabrication and the SYN flood, and the k=4
// link-saturation flood at 2 shards executing in parallel (where frames
// and their pooled buffers cross shard goroutines), with every host's
// received frames and their carried match tuples checked during delivery. Under -race, a write or a
// recycle that overlaps another shard's read of the same buffer is also
// reported as a data race.
func TestWireFramesImmutable(t *testing.T) {
	t.Run("fig9-inband-amnesia", func(t *testing.T) {
		s := NewFig9Testbed(3, FullStack())
		defer s.Close()
		var w wireWatch
		for _, name := range fig9Hosts {
			w.tap(s.Net, name, name)
		}
		// The LLI calibration period, as inBandCell runs it.
		if err := s.Run(62 * time.Second); err != nil {
			t.Fatal(err)
		}
		fab := attack.NewInBandFabrication(s.Net.Kernel, s.Host(HostAttackerA), s.Host(HostAttackerB), 0)
		fab.Start()
		// Start replaced the colluding hosts' hooks with the relays.
		w.tap(s.Net, HostAttackerA, HostAttackerA+"/relay")
		w.tap(s.Net, HostAttackerB, HostAttackerB+"/relay")
		if err := s.Run(50 * time.Second); err != nil {
			t.Fatal(err)
		}
		if a, b := fab.Cycles(); a+b == 0 {
			t.Fatal("the relays never ran an amnesia cycle")
		}
		// Both relays must have captured probes, which they tunnel to
		// their peer from a copy held past the delivery.
		for _, hw := range w.hosts[len(fig9Hosts):] {
			if hw.lldp == 0 {
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
			w.tap(s.Net, name, name)
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
			w.tap(s.Net, name, name)
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
