package sdntamper

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the hot paths and ablation benches for the design
// choices DESIGN.md calls out. The table/figure benches measure the cost
// of regenerating each artifact with this library (virtual-time work per
// wall-clock op); Table II's benches are themselves the measurement the
// paper reports (real CPU cost of the TopoGuard+ LLDP extensions).

import (
	"math/rand"
	"testing"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/core"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/ids"
	"sdntamper/internal/link"
	"sdntamper/internal/lldp"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/probe"
	"sdntamper/internal/sim"
	"sdntamper/internal/traffic"
)

// --- Table I: liveness probe options -----------------------------------

func benchProbe(b *testing.B, typ probe.Type) {
	b.Helper()
	s := core.NewFig2Scenario(1, core.NoDefenses())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	attacker := s.Net.Host(core.HostAttackerA)
	victim := s.Net.Host(core.HostVictim)
	zombie := s.Net.Host(core.HostClient)
	p := probe.New(s.Net.Kernel, attacker, typ,
		probe.WithZombie(probe.Zombie{MAC: zombie.MAC(), IP: zombie.IP(), Port: 9}))
	target := probe.Target{MAC: victim.MAC(), IP: victim.IP(), Port: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		if err := p.Probe(target, 200*time.Millisecond, func(probe.Result) { done = true }); err != nil {
			b.Fatal(err)
		}
		if err := s.Run(2 * time.Second); err != nil {
			b.Fatal(err)
		}
		if !done {
			b.Fatal("probe did not resolve")
		}
	}
}

func BenchmarkTableI_ICMPPing(b *testing.B)    { benchProbe(b, probe.ICMPPing) }
func BenchmarkTableI_TCPSYN(b *testing.B)      { benchProbe(b, probe.TCPSYN) }
func BenchmarkTableI_ARPPing(b *testing.B)     { benchProbe(b, probe.ARPPing) }
func BenchmarkTableI_TCPIdleScan(b *testing.B) { benchProbe(b, probe.TCPIdleScan) }

// --- Table II: TopoGuard+ LLDP overhead (the real measurement) ---------

func BenchmarkTableII_LLDPConstructionPlain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
		_ = f.Marshal()
	}
}

func BenchmarkTableII_LLDPConstructionTGPlus(b *testing.B) {
	kc, err := lldp.NewKeychain([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	sg := kc.NewSigner()
	now := time.Unix(1700000000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
		f.Timestamp = sg.SealTimestamp(now)
		sg.Sign(f)
		_ = f.Marshal()
	}
}

func BenchmarkTableII_LLDPProcessingPlain(b *testing.B) {
	wire := (&lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lldp.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_LLDPProcessingTGPlus(b *testing.B) {
	kc, err := lldp.NewKeychain([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	sg := kc.NewSigner()
	now := time.Unix(1700000000, 0)
	f := &lldp.Frame{ChassisID: 1, PortID: 2, TTLSecs: 120}
	f.Timestamp = sg.SealTimestamp(now)
	sg.Sign(f)
	wire := f.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := lldp.Unmarshal(wire)
		if err != nil {
			b.Fatal(err)
		}
		if err := sg.Verify(got); err != nil {
			b.Fatal(err)
		}
		if _, err := sg.OpenTimestamp(got.Timestamp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: per-profile discovery rounds ----------------------------

func benchDiscoveryRound(b *testing.B, profile string) {
	b.Helper()
	var prof func() core.Defenses
	_ = prof
	rows := core.RunTableIII()
	var interval time.Duration
	for _, r := range rows {
		if r.Controller == profile {
			interval = r.DiscoveryInterval
		}
	}
	s := core.NewFig9Testbed(1, core.NoDefenses())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(interval); err != nil {
			b.Fatal(err)
		}
	}
	if len(s.Controller().Links()) == 0 {
		b.Fatal("no links discovered")
	}
}

func BenchmarkTableIII_FloodlightRound(b *testing.B) { benchDiscoveryRound(b, "Floodlight") }
func BenchmarkTableIII_POXRound(b *testing.B)        { benchDiscoveryRound(b, "POX") }

// --- Figure 4: ifconfig identity-change distribution --------------------

func BenchmarkFig4_IdentityChangeSample(b *testing.B) {
	k := sim.New(sim.WithSeed(4))
	sampler := dataplane.DefaultIdentityChange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sampler.Sample(k.Rand())
	}
}

// --- Figures 3 and 5-8: one complete port-probing hijack per op ---------

func BenchmarkFig5678_HijackRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		events, err := core.RunFig3Timeline(int64(i)+1, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(events) != 6 {
			b.Fatal("incomplete timeline")
		}
	}
}

// benchHijackDistributions measures an 8-trial Figure 5-8 experiment end to
// end; the serial/parallel pair is the wall-clock speedup evidence for the
// parallel trial executor, and CHANGES.md records its first numbers.
func benchHijackDistributions(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		d, err := core.RunHijackDistributions(int64(i)*1000+1, 8, false, workers)
		if err != nil {
			b.Fatal(err)
		}
		if d.AttackerUp.N()+d.Failed != 8 {
			b.Fatalf("runs accounted = %d", d.AttackerUp.N()+d.Failed)
		}
	}
}

func BenchmarkFig5678_Distributions8Serial(b *testing.B)   { benchHijackDistributions(b, 1) }
func BenchmarkFig5678_Distributions8Parallel(b *testing.B) { benchHijackDistributions(b, 0) }

// --- Figures 10-13 ------------------------------------------------------

func BenchmarkFig10_LLIMeasurementRound(b *testing.B) {
	s := core.NewFig9Testbed(10, core.TopoGuardPlus())
	defer s.Close()
	if err := s.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(15 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	if len(s.LLI.Samples()) == 0 {
		b.Fatal("no LLI samples")
	}
}

func BenchmarkFig11_OOBDetectionRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig11(int64(i)+1, 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Alerts) == 0 {
			b.Fatal("attack not detected")
		}
	}
}

func BenchmarkFig12_InBandDetectionRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alerts, err := core.RunFig12(int64(i)+1, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(alerts) == 0 {
			b.Fatal("attack not detected")
		}
	}
}

// --- Section V-B2: IDS inspection throughput ----------------------------

func BenchmarkIDSInspectSYN(b *testing.B) {
	k := sim.New()
	sensor := ids.NewSensor(k)
	frame := packet.NewTCPSegment(
		packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb"),
		packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2"),
		40000, 80, packet.TCPSyn, 1, 0, nil).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sensor.Inspect(frame)
	}
}

// --- Attack end-to-end benches ------------------------------------------

func BenchmarkOOBFabricationRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.NewFig9Testbed(int64(i)+1, core.BothBaselines())
		fab := attack.NewOOBFabrication(s.Net.Kernel,
			s.Net.Host(core.HostAttackerA), s.Net.Host(core.HostAttackerB), s.OOB,
			attack.FabricationConfig{UseAmnesia: true})
		if err := s.Run(2 * time.Second); err != nil {
			b.Fatal(err)
		}
		fab.Start()
		if err := s.Run(30 * time.Second); err != nil {
			b.Fatal(err)
		}
		if !s.Controller().HasLink(core.FabricatedLinkFig9()) {
			b.Fatal("fabrication failed")
		}
		s.Close()
	}
}

// --- Ablations ----------------------------------------------------------

func benchLLIAblation(b *testing.B, k float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := core.RunLLIAblation(int64(i)+1, []float64{k}, []int{100}, 3*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Detected {
			b.Fatal("attack not detected")
		}
	}
}

func BenchmarkAblationLLIMultiplier1_5(b *testing.B) { benchLLIAblation(b, 1.5) }
func BenchmarkAblationLLIMultiplier3(b *testing.B)   { benchLLIAblation(b, 3) }

func BenchmarkAblationControlAveraging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunControlAveragingAblation(int64(i)+1, []int{1, 3}, 2*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the substrate hot paths -------------------------

func BenchmarkOpenFlowMarshalPacketIn(b *testing.B) {
	data := make([]byte, 128)
	msg := &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = openflow.Marshal(uint32(i), msg)
	}
}

func BenchmarkOpenFlowUnmarshalPacketIn(b *testing.B) {
	wire := openflow.Marshal(1, &openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1, Data: make([]byte, 128)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := openflow.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	var tbl dataplane.FlowTable
	now := time.Unix(0, 0)
	for i := 0; i < 64; i++ {
		var mac packet.MAC
		mac[5] = byte(i)
		tbl.Apply(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildEthDst, Fields: openflow.Fields{EthDst: mac}},
			Priority: 10,
			Actions:  []openflow.Action{openflow.Output(1)},
		}, now)
	}
	fields := openflow.Fields{EthDst: packet.MAC{0, 0, 0, 0, 0, 63}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(fields) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFlowTableLookup512 is BenchmarkFlowTableLookup at the size the
// attack matrix grows switch tables to: 512 destination-MAC rules plus
// in-port block rules, the two wildcard masks the controller and the rate
// monitor install. CI enforces 0 allocs/op.
func BenchmarkFlowTableLookup512(b *testing.B) {
	var tbl dataplane.FlowTable
	now := time.Unix(0, 0)
	for i := 0; i < 512; i++ {
		mac := packet.MAC{0, 0, 0, 0, byte(i >> 8), byte(i)}
		tbl.Apply(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildEthDst, Fields: openflow.Fields{EthDst: mac}},
			Priority: 10,
			Actions:  []openflow.Action{openflow.Output(1)},
		}, now)
	}
	for port := uint32(1); port <= 4; port++ {
		tbl.Apply(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildInPort, Fields: openflow.Fields{InPort: port}},
			Priority: 100,
		}, now)
	}
	fields := openflow.Fields{InPort: 7, EthDst: packet.MAC{0, 0, 0, 0, 1, 0xff}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(fields) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkExtractFields classifies one UDP and one TCP frame per op, the
// per-hop header parse of every switch. Each layer is validated in place,
// checksums included, so it must run allocation-free (CI-enforced).
func BenchmarkExtractFields(b *testing.B) {
	a, d := packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb")
	ipA, ipD := packet.MustIPv4("10.0.0.1"), packet.MustIPv4("10.0.0.2")
	u := &packet.UDP{SrcPort: 5000, DstPort: 9, Payload: make([]byte, 1000)}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: ipA, Dst: ipD, Payload: u.Marshal()}
	udp := (&packet.Ethernet{Dst: d, Src: a, Type: packet.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	tcp := packet.NewTCPSegment(a, d, ipA, ipD, 40000, 80, packet.TCPSyn, 1, 0, nil).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if openflow.ExtractFields(1, udp).TPDst != 9 || openflow.ExtractFields(2, tcp).TPDst != 80 {
			b.Fatal("frame not classified")
		}
	}
}

func BenchmarkSimKernelEventThroughput(b *testing.B) {
	// b.N can exceed the kernel's default runaway guard on fast hosts.
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			k.Schedule(time.Microsecond, next)
		}
	}
	b.ResetTimer()
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLinkFrameDelivery measures one ARP request delivered over a
// link to the host it asks for, which decodes it by value and answers
// from its transmit scratch, so the delivery runs allocation-free.
func BenchmarkLinkFrameDelivery(b *testing.B) {
	k := sim.New()
	l := link.NewLink(k, sim.Const(time.Microsecond))
	dataplane.NewHost(k, "h", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndB)
	frame := packet.NewARPRequest(packet.MustMAC("bb:bb:bb:bb:bb:bb"), packet.MustIPv4("10.0.0.2"), packet.MustIPv4("10.0.0.1")).Marshal()
	deliver := func() {
		l.Send(link.EndA, link.NewFrame(frame))
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	deliver() // warm the reply scratch, the frame pool and the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
}

// --- Allocation-gated hot-path benchmarks (CI enforces 0 allocs/op) ------

// frameSink is a link attachment that counts deliveries and, as every
// frame's last owner, releases them.
type frameSink struct{ frames int }

func (s *frameSink) ReceiveFrame(f *link.Frame) { s.frames++; f.Release() }
func (s *frameSink) CarrierChange(bool)         {}

// BenchmarkSwitchHop measures one forwarding hop: a UDP frame arrives on
// a switch port, matches a destination-MAC rule and leaves over a second
// link to a peer. Links take ownership of wire frames instead of copying
// them, frames come from the link package's pool and the delivery
// structs are pooled per link, so a hop must run allocation-free.
func BenchmarkSwitchHop(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	in := link.NewLink(k, sim.Const(time.Microsecond))
	out := link.NewLink(k, sim.Const(time.Microsecond))
	sw := dataplane.NewSwitch(k, 1)
	sw.Shutdown() // no flow-expiry ticker: k.Run drains after each hop
	sw.AddPort(1, in, link.EndB, nil)
	sw.AddPort(2, out, link.EndA, nil)
	sink := &frameSink{}
	out.Attach(link.EndB, sink)
	dst := packet.MustMAC("bb:bb:bb:bb:bb:bb")
	sw.Table().Apply(&openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildEthDst, Fields: openflow.Fields{EthDst: dst}},
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	}, k.Now())
	u := &packet.UDP{SrcPort: 5000, DstPort: 9, Payload: make([]byte, 1000)}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
		Src: packet.MustIPv4("10.0.0.1"), Dst: packet.MustIPv4("10.0.0.2"), Payload: u.Marshal()}
	frame := (&packet.Ethernet{Dst: dst, Src: packet.MustMAC("aa:aa:aa:aa:aa:aa"),
		Type: packet.EtherTypeIPv4, Payload: ip.Marshal()}).Marshal()
	hop := func() {
		in.Send(link.EndA, link.NewFrame(frame))
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	hop() // warm both links' delivery free lists and the kernel's
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
	b.StopTimer()
	if sink.frames != b.N+1 {
		b.Fatalf("peer received %d of %d frames", sink.frames, b.N+1)
	}
}

// BenchmarkHostToHost measures a full frame trip: a host sends a UDP
// datagram with a 1,400-byte payload, the size of a link-saturation
// flood packet, through one switch hop to a second host, which observes
// it with an OnFrame tap. The sender copies the frame into a pooled wire
// frame, the switch forwards that frame itself and the receiver releases
// it back to the pool, so the trip must run allocation-free.
func BenchmarkHostToHost(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	in := link.NewLink(k, sim.Const(time.Microsecond))
	out := link.NewLink(k, sim.Const(time.Microsecond))
	sw := dataplane.NewSwitch(k, 1)
	sw.Shutdown() // no flow-expiry ticker: k.Run drains after each trip
	sw.AddPort(1, in, link.EndB, nil)
	sw.AddPort(2, out, link.EndA, nil)
	srcMAC, dstMAC := packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb")
	dstIP := packet.MustIPv4("10.0.0.2")
	src := dataplane.NewHost(k, "src", srcMAC, packet.MustIPv4("10.0.0.1"), in, link.EndA)
	dst := dataplane.NewHost(k, "dst", dstMAC, dstIP, out, link.EndB)
	tapped := 0
	dst.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		if eth.Type == packet.EtherTypeIPv4 {
			tapped++
		}
		return false
	}
	sw.Table().Apply(&openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildEthDst, Fields: openflow.Fields{EthDst: dstMAC}},
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	}, k.Now())
	payload := make([]byte, 1400)
	trip := func() {
		src.SendUDP(dstMAC, dstIP, 5000, 9, payload)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	trip() // warm the transmit scratch, the frame pool and the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
	b.StopTimer()
	if tapped != b.N+1 {
		b.Fatalf("receiver tapped %d of %d frames", tapped, b.N+1)
	}
}

// BenchmarkSwitchChain measures a UDP datagram with a 1,400-byte payload
// crossing five switches, the k=4 fat-tree's inter-pod path (edge,
// aggregation, core, aggregation, edge), from one host to a tapped one.
// The first switch parses the frame and every later hop reuses the tuple
// it carries, so a trip costs well under five BenchmarkSwitchHop hops and
// runs allocation-free.
func BenchmarkSwitchChain(b *testing.B) {
	const hops = 5
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	srcMAC, dstMAC := packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb")
	dstIP := packet.MustIPv4("10.0.0.2")
	first := link.NewLink(k, sim.Const(time.Microsecond))
	src := dataplane.NewHost(k, "src", srcMAC, packet.MustIPv4("10.0.0.1"), first, link.EndA)
	in := first
	for i := 0; i < hops; i++ {
		out := link.NewLink(k, sim.Const(time.Microsecond))
		sw := dataplane.NewSwitch(k, uint64(i+1))
		sw.Shutdown() // no flow-expiry ticker: k.Run drains after each trip
		sw.AddPort(1, in, link.EndB, nil)
		sw.AddPort(2, out, link.EndA, nil)
		sw.Table().Apply(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    openflow.Match{Wildcards: openflow.WildAll &^ openflow.WildEthDst, Fields: openflow.Fields{EthDst: dstMAC}},
			Priority: 10,
			Actions:  []openflow.Action{openflow.Output(2)},
		}, k.Now())
		in = out
	}
	dst := dataplane.NewHost(k, "dst", dstMAC, dstIP, in, link.EndB)
	tapped := 0
	dst.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		if eth.Type == packet.EtherTypeIPv4 {
			tapped++
		}
		return false
	}
	payload := make([]byte, 1400)
	trip := func() {
		src.SendUDP(dstMAC, dstIP, 5000, 9, payload)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	trip() // warm the transmit scratch, the frame pool and the free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
	b.StopTimer()
	if tapped != b.N+1 {
		b.Fatalf("receiver tapped %d of %d frames", tapped, b.N+1)
	}
}

// BenchmarkHostReceive measures a host's receive path for one UDP frame
// addressed to it: decode, an observing OnFrame tap, the IPv4 handler and
// OnDeliver, then the release of the pooled wire frame. The host decodes
// into its own receive scratch, so the header handed to the hooks must
// not escape and the path runs allocation-free.
func BenchmarkHostReceive(b *testing.B) {
	k := sim.New()
	l := link.NewLink(k, sim.Const(time.Microsecond))
	mac, ip := packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1")
	h := dataplane.NewHost(k, "h", mac, ip, l, link.EndB)
	tapped, delivered := 0, 0
	h.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		tapped++
		return false
	}
	h.OnDeliver = func(eth *packet.Ethernet) {
		if eth.Type == packet.EtherTypeIPv4 {
			delivered++
		}
	}
	u := &packet.UDP{SrcPort: 5000, DstPort: 9, Payload: make([]byte, 64)}
	ipv4 := &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
		Src: packet.MustIPv4("10.0.0.2"), Dst: ip, Payload: u.Marshal()}
	frame := (&packet.Ethernet{Dst: mac, Src: packet.MustMAC("bb:bb:bb:bb:bb:bb"),
		Type: packet.EtherTypeIPv4, Payload: ipv4.Marshal()}).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ReceiveFrame(link.NewFrame(frame))
	}
	b.StopTimer()
	if tapped != b.N || delivered != b.N {
		b.Fatalf("tapped %d and delivered %d of %d frames", tapped, delivered, b.N)
	}
}

// BenchmarkSchedule measures the steady-state schedule->fire cycle of the
// event kernel. After warmup every fired event's slot is recycled through
// the kernel free list, so the loop must run allocation-free.
func BenchmarkSchedule(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	count, limit := 0, 0
	var next func()
	next = func() {
		count++
		if count < limit {
			k.Schedule(time.Microsecond, next)
		}
	}
	// Warm the slot free list and the heap backing array.
	limit = 256
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	count, limit = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleDeep is the schedule->fire cycle with 16K events
// pending, the queue depth of a large fabric's discovery round, where
// BenchmarkSchedule keeps a one-event heap. Each op fires the earliest
// event, which reschedules itself after one of 1024 fixed pseudo-random
// delays (many instants repeat, so seq breaks ties), so every op pays a
// full-depth sift-down and a sift-up. It must run allocation-free.
func BenchmarkScheduleDeep(b *testing.B) {
	const pending = 1 << 14
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(1000)) * time.Microsecond
	}
	n := 0
	var next func()
	next = func() {
		n++
		k.Schedule(delays[n%len(delays)], next)
	}
	for i := 0; i < pending; i++ {
		k.Schedule(delays[i%len(delays)], next)
	}
	for i := 0; i < pending; i++ { // warm the heap and the slot free list
		k.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.StopTimer()
	if k.Pending() != pending {
		b.Fatalf("%d events pending, want %d", k.Pending(), pending)
	}
}

// BenchmarkScheduleTraced is BenchmarkSchedule with a span flight
// recorder attached to the kernel: causal context is captured on every
// schedule and restored on every fire, but no spans are emitted (the
// benchmark events carry no trace context), which is the steady-state
// cost tracing adds to the kernel hot path. It must also stay
// allocation-free.
func BenchmarkScheduleTraced(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	k.SetTracer(trace.NewRecorder(0))
	count, limit := 0, 0
	var next func()
	next = func() {
		count++
		if count < limit {
			k.Schedule(time.Microsecond, next)
		}
	}
	limit = 256
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	count, limit = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	k.Schedule(0, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardGroupSparse measures a sparse sharded schedule: per op,
// one event on shard 0 posts a delivery 1 ms across a 500 µs-lookahead
// cross-shard link, then the group runs one virtual second serially.
// Windows open at the next pending event, so the op costs a handful of
// windows rather than one per lookahead of the second, and once the free
// lists and the staging buffer are warm it must run allocation-free.
func BenchmarkShardGroupSparse(b *testing.B) {
	k0 := sim.New(sim.WithEventLimit(^uint64(0)))
	k1 := sim.New(sim.WithEventLimit(^uint64(0)))
	g := sim.NewShardGroup(k0, k1)
	g.RegisterCrossLatency(500 * time.Microsecond)
	delivered := 0
	deliver := func(any) { delivered++ }
	send := func() { g.Post(0, 1, time.Millisecond, deliver, nil) }
	op := func() {
		k0.Schedule(0, send)
		if err := g.RunFor(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	op() // warm both kernels' free lists and the staging buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if delivered != b.N+1 {
		b.Fatalf("shard 1 received %d of %d deliveries", delivered, b.N+1)
	}
}

// BenchmarkTrafficBurst measures the traffic engine's per-packet
// overhead: flow admission, batched pump events and frame construction
// into the host's reused transmit buffer. The wire's carrier is down, so
// the host drops each frame before copying it into a pooled wire frame
// (BenchmarkHostToHost measures that copy and the trip across a switch).
// Everything the engine itself does per packet must be allocation-free:
// package-level event functions recycle kernel slots, payloads are
// pooled, and flow state is two integers.
func BenchmarkTrafficBurst(b *testing.B) {
	k := sim.New(sim.WithEventLimit(^uint64(0)))
	l := link.NewLink(k, sim.Const(time.Microsecond))
	h := dataplane.NewHost(k, "h", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l, link.EndB)
	l.SetCarrier(link.EndA, false)
	g := traffic.NewGenerator(h, packet.MustMAC("bb:bb:bb:bb:bb:bb"), packet.MustIPv4("10.0.0.2"), 9,
		traffic.Profile{PayloadBytes: 1000}, 1, 0)
	// Warm the kernel free list and heap backing array.
	g.Burst(256)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Burst(b.N) // default profile: one packet per flow
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if got := g.Counters().Packets; got < uint64(b.N) {
		b.Fatalf("drained %d of %d packets", got, b.N)
	}
}

// BenchmarkFramePath measures building one complete Ethernet/IPv4/TCP
// frame layer by layer into a reused scratch buffer — the host transmit
// path — and marshaling it into a PacketIn the way a switch's control
// path does. Both halves reuse their buffers, so the loop must run
// allocation-free.
func BenchmarkFramePath(b *testing.B) {
	src, dst := packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustMAC("bb:bb:bb:bb:bb:bb")
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, ID: 7,
		Src: packet.MustIPv4("10.0.0.1"), Dst: packet.MustIPv4("10.0.0.2")}
	seg := packet.TCP{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: packet.TCPSyn, Window: 65535}
	pktIn := openflow.PacketIn{BufferID: openflow.NoBuffer, InPort: 1}
	frameBuf := make([]byte, 0, 128)
	ctlBuf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameBuf = packet.AppendEthernetHeader(frameBuf[:0], dst, src, packet.EtherTypeIPv4)
		ipStart := len(frameBuf)
		frameBuf = ip.AppendHeaderTo(frameBuf)
		frameBuf = seg.AppendTo(frameBuf)
		packet.FinishIPv4(frameBuf, ipStart)
		pktIn.Data = frameBuf
		ctlBuf = openflow.AppendMarshal(ctlBuf[:0], uint32(i), &pktIn)
	}
	if len(ctlBuf) == 0 {
		b.Fatal("empty marshal")
	}
}
