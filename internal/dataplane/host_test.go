package dataplane

import (
	"testing"
	"time"

	"sdntamper/internal/link"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
	"sdntamper/internal/stats"
)

// hostPair wires two hosts back-to-back over one link (no switch), which
// is enough to exercise the protocol responders and probe primitives.
func hostPair(t *testing.T, opts ...HostOption) (*sim.Kernel, *Host, *Host) {
	t.Helper()
	k := sim.New()
	l := link.NewLink(k, sim.Const(2*time.Millisecond))
	a := NewHost(k, "a", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndA)
	b := NewHost(k, "b", packet.MustMAC("bb:bb:bb:bb:bb:bb"), packet.MustIPv4("10.0.0.2"), l, link.EndB, opts...)
	return k, a, b
}

func TestARPResponder(t *testing.T) {
	k, a, b := hostPair(t)
	var got ProbeResult
	a.ARPPing(b.IP(), 50*time.Millisecond, func(r ProbeResult) { got = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got.Alive {
		t.Fatal("ARP ping got no reply")
	}
	if got.RTT != 4*time.Millisecond {
		t.Fatalf("rtt = %v, want 4ms", got.RTT)
	}
}

func TestARPPingTimeoutWhenTargetDown(t *testing.T) {
	k, a, b := hostPair(t)
	b.InterfaceDown()
	var got ProbeResult
	var at time.Duration
	a.ARPPing(b.IP(), 35*time.Millisecond, func(r ProbeResult) { got = r; at = k.Elapsed() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Alive {
		t.Fatal("downed host answered ARP")
	}
	if at != 35*time.Millisecond {
		t.Fatalf("timeout fired at %v, want 35ms", at)
	}
}

func TestARPIgnoresWrongTarget(t *testing.T) {
	k, a, _ := hostPair(t)
	var alive bool
	a.ARPPing(packet.MustIPv4("10.0.0.99"), 20*time.Millisecond, func(r ProbeResult) { alive = r.Alive })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if alive {
		t.Fatal("reply for IP nobody owns")
	}
}

func TestICMPResponder(t *testing.T) {
	k, a, b := hostPair(t)
	var got ProbeResult
	a.Ping(b.MAC(), b.IP(), 50*time.Millisecond, func(r ProbeResult) { got = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got.Alive || got.RTT != 4*time.Millisecond {
		t.Fatalf("ping result = %+v", got)
	}
}

func TestICMPBlockedByFirewall(t *testing.T) {
	k, a, b := hostPair(t)
	b.RespondToPing = false
	var got ProbeResult
	a.Ping(b.MAC(), b.IP(), 30*time.Millisecond, func(r ProbeResult) { got = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Alive {
		t.Fatal("firewalled host answered ping")
	}
}

func TestTCPSYNProbeOpenAndClosedBothAlive(t *testing.T) {
	k, a, b := hostPair(t, WithOpenTCPPorts(80))
	var open, closed ProbeResult
	a.TCPSYNProbe(b.MAC(), b.IP(), 80, 50*time.Millisecond, func(r ProbeResult) { open = r })
	a.TCPSYNProbe(b.MAC(), b.IP(), 81, 50*time.Millisecond, func(r ProbeResult) { closed = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !open.Alive {
		t.Fatal("open port: no SYN-ACK")
	}
	if !closed.Alive {
		t.Fatal("closed port: RST should still prove liveness")
	}
}

func TestTCPSYNProbeTimeout(t *testing.T) {
	k, a, b := hostPair(t)
	b.InterfaceDown()
	var got ProbeResult
	a.TCPSYNProbe(b.MAC(), b.IP(), 80, 30*time.Millisecond, func(r ProbeResult) { got = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Alive {
		t.Fatal("downed host answered SYN")
	}
}

func TestInterfaceDownStopsTraffic(t *testing.T) {
	k, a, b := hostPair(t)
	a.InterfaceDown()
	a.SendUDP(b.MAC(), b.IP(), 1, 2, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if b.RxFrames() != 0 {
		t.Fatal("downed interface transmitted")
	}
	if a.TxFrames() != 0 {
		t.Fatal("tx counter incremented while down")
	}
	a.InterfaceUp()
	a.SendUDP(b.MAC(), b.IP(), 1, 2, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if b.RxFrames() != 1 {
		t.Fatal("restored interface cannot transmit")
	}
}

func TestInterfaceDownIdempotent(t *testing.T) {
	_, a, _ := hostPair(t)
	a.InterfaceDown()
	a.InterfaceDown()
	a.InterfaceUp()
	a.InterfaceUp()
	if !a.Up() {
		t.Fatal("interface should be up")
	}
}

func TestChangeIdentity(t *testing.T) {
	k, a, b := hostPair(t)
	newMAC := packet.MustMAC("cc:cc:cc:cc:cc:cc")
	newIP := packet.MustIPv4("10.0.0.3")
	var took time.Duration
	b.ChangeIdentity(newMAC, newIP, func(d time.Duration) { took = d })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if b.MAC() != newMAC || b.IP() != newIP {
		t.Fatal("identity not changed")
	}
	if !b.Up() {
		t.Fatal("interface down after identity change")
	}
	if took <= 0 {
		t.Fatal("identity change should take measurable time")
	}
	// The impostor answers ARP for the stolen IP.
	var got ProbeResult
	a.ARPPing(newIP, 50*time.Millisecond, func(r ProbeResult) { got = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got.Alive {
		t.Fatal("new identity not answering ARP")
	}
}

func TestIdentityChangeDistributionMatchesFigure4(t *testing.T) {
	// Figure 4: mean 9.94ms, heavy tail to ~160ms.
	k := sim.New(sim.WithSeed(4))
	sampler := DefaultIdentityChange()
	var series stats.DurationSeries
	for i := 0; i < 5000; i++ {
		series.Add(sampler.Sample(k.Rand()))
	}
	mean := series.Mean()
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("mean = %v, want ~9.94ms", mean)
	}
	if series.Max() < 60*time.Millisecond {
		t.Fatalf("max = %v, want a heavy tail", series.Max())
	}
	if series.Max() > 400*time.Millisecond {
		t.Fatalf("max = %v, tail too heavy", series.Max())
	}
	if med := series.Quantile(0.5); med > mean {
		t.Fatalf("median %v above mean %v: distribution should be right-skewed", med, mean)
	}
}

func TestDownUpDurationMatchesSectionVA(t *testing.T) {
	// Section V-A: plain ifconfig down/up takes 3.25ms on average.
	k := sim.New(sim.WithSeed(5))
	l := link.NewLink(k, nil)
	h := NewHost(k, "h", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndA)
	var series stats.DurationSeries
	for i := 0; i < 2000; i++ {
		series.Add(h.DownUpDuration())
	}
	mean := series.Mean()
	if mean < 3*time.Millisecond || mean > 3500*time.Microsecond {
		t.Fatalf("mean = %v, want ~3.25ms", mean)
	}
}

func TestOnFrameHookConsumes(t *testing.T) {
	k, a, b := hostPair(t)
	var captured [][]byte
	b.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		if eth.Type == packet.EtherTypeARP {
			captured = append(captured, append([]byte(nil), raw...))
			return true // swallow: the responder must not reply
		}
		return false
	}
	var got ProbeResult
	a.ARPPing(b.IP(), 30*time.Millisecond, func(r ProbeResult) { got = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Alive {
		t.Fatal("hook did not consume the ARP request")
	}
	if len(captured) != 1 {
		t.Fatalf("captured = %d frames", len(captured))
	}
}

// TestHostSendRawCopiesScratch pins where a host's wire copy of a frame
// is made: links take ownership of what they are sent, so the host must
// copy its reused transmit buffer into a pooled frame. Frame B is built
// into the same buffer as frame A while A is still in flight; the peer
// must receive both intact.
func TestHostSendRawCopiesScratch(t *testing.T) {
	k, a, b := hostPair(t)
	var got [][]byte
	b.OnFrame = func(_ *packet.Ethernet, raw []byte) bool {
		got = append(got, append([]byte(nil), raw...)) // raw is valid only during the call
		return true
	}
	a.SendUDP(b.MAC(), b.IP(), 1000, 2000, []byte("frame A"))
	wantA := append([]byte(nil), a.txBuf...)
	scratch := &a.txBuf[0]
	a.SendUDP(b.MAC(), b.IP(), 1001, 2001, []byte("frame B, longer"))
	wantB := append([]byte(nil), a.txBuf...)
	if &a.txBuf[0] != scratch {
		t.Fatal("frame B was not built into frame A's transmit buffer")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("received %d frames, want 2", len(got))
	}
	if string(got[0]) != string(wantA) || string(got[1]) != string(wantB) {
		t.Fatalf("frames corrupted by transmit-buffer reuse:\n got %x\n     %x\nwant %x\n     %x", got[0], got[1], wantA, wantB)
	}
}

func TestOnDeliverSeesUnhandledTraffic(t *testing.T) {
	k, a, b := hostPair(t)
	var got packet.Ethernet
	b.OnDeliver = func(e *packet.Ethernet) {
		if e.Type == packet.EtherTypeIPv4 {
			got = *e // the header is valid only during the call
		}
	}
	a.SendUDP(b.MAC(), b.IP(), 1000, 2000, []byte("payload"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Type != packet.EtherTypeIPv4 || got.Src != a.MAC() {
		t.Fatalf("UDP frame not delivered: %+v", got)
	}
}

func TestNonPromiscuousDropsForeignFrames(t *testing.T) {
	k, a, b := hostPair(t)
	delivered := 0
	b.OnDeliver = func(*packet.Ethernet) { delivered++ }
	a.SendUDP(packet.MustMAC("dd:dd:dd:dd:dd:dd"), b.IP(), 1, 2, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("foreign-MAC frame delivered without promiscuous mode")
	}
	b.Promiscuous = true
	a.SendUDP(packet.MustMAC("dd:dd:dd:dd:dd:dd"), b.IP(), 1, 2, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("promiscuous host missed frame")
	}
}

func TestConcurrentProbesIndependent(t *testing.T) {
	k, a, b := hostPair(t)
	results := make([]ProbeResult, 3)
	a.Ping(b.MAC(), b.IP(), 50*time.Millisecond, func(r ProbeResult) { results[0] = r })
	a.Ping(b.MAC(), b.IP(), 50*time.Millisecond, func(r ProbeResult) { results[1] = r })
	a.ARPPing(b.IP(), 50*time.Millisecond, func(r ProbeResult) { results[2] = r })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Alive {
			t.Fatalf("probe %d failed", i)
		}
	}
}
