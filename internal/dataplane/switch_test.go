package dataplane

import (
	"testing"
	"time"

	"sdntamper/internal/link"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// controlTap records OpenFlow messages the switch sends upstream.
type controlTap struct {
	msgs []openflow.Message
}

func (c *controlTap) send(b []byte) {
	_, m, err := openflow.Unmarshal(b)
	if err != nil {
		return
	}
	c.msgs = append(c.msgs, m)
}

func (c *controlTap) packetIns() []*openflow.PacketIn {
	var out []*openflow.PacketIn
	for _, m := range c.msgs {
		if pi, ok := m.(*openflow.PacketIn); ok {
			out = append(out, pi)
		}
	}
	return out
}

func (c *controlTap) portStatuses() []*openflow.PortStatus {
	var out []*openflow.PortStatus
	for _, m := range c.msgs {
		if ps, ok := m.(*openflow.PortStatus); ok {
			out = append(out, ps)
		}
	}
	return out
}

// rig is a one-switch test network with two hosts.
type rig struct {
	kernel *sim.Kernel
	sw     *Switch
	tap    *controlTap
	h1, h2 *Host
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.New()
	sw := NewSwitch(k, 0x1)
	tap := &controlTap{}
	sw.SetControlSender(tap.send)
	l1 := link.NewLink(k, sim.Const(time.Millisecond))
	l2 := link.NewLink(k, sim.Const(time.Millisecond))
	sw.AddPort(1, l1, link.EndA, nil)
	sw.AddPort(2, l2, link.EndA, nil)
	h1 := NewHost(k, "h1", packet.MustMAC("aa:aa:aa:aa:aa:aa"), packet.MustIPv4("10.0.0.1"), l1, link.EndB)
	h2 := NewHost(k, "h2", packet.MustMAC("bb:bb:bb:bb:bb:bb"), packet.MustIPv4("10.0.0.2"), l2, link.EndB)
	t.Cleanup(sw.Shutdown)
	return &rig{kernel: k, sw: sw, tap: tap, h1: h1, h2: h2}
}

func (r *rig) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := r.kernel.RunFor(d); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) control(t *testing.T, m openflow.Message) {
	t.Helper()
	r.sw.HandleControl(openflow.Marshal(99, m))
}

func TestTableMissGeneratesPacketIn(t *testing.T) {
	r := newRig(t)
	r.h1.SendUDP(r.h2.MAC(), r.h2.IP(), 1000, 2000, []byte("x"))
	r.run(t, 10*time.Millisecond)
	pis := r.tap.packetIns()
	if len(pis) != 1 {
		t.Fatalf("packet-ins = %d, want 1", len(pis))
	}
	if pis[0].InPort != 1 || pis[0].Reason != openflow.ReasonNoMatch {
		t.Fatalf("packet-in = %+v", pis[0])
	}
	f := openflow.ExtractFields(pis[0].InPort, pis[0].Data)
	if f.EthSrc != r.h1.MAC() {
		t.Fatalf("packet-in carries wrong frame: %+v", f)
	}
}

func TestFlowHitForwardsWithoutPacketIn(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    dstMatch("bb:bb:bb:bb:bb:bb"),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	})
	r.h1.SendUDP(r.h2.MAC(), r.h2.IP(), 1000, 2000, []byte("hello"))
	r.run(t, 10*time.Millisecond)
	if len(r.tap.packetIns()) != 0 {
		t.Fatal("flow hit still generated packet-in")
	}
	if r.h2.RxFrames() != 1 {
		t.Fatalf("h2 rx = %d, want 1", r.h2.RxFrames())
	}
	e := r.sw.Table().Entries()[0]
	if e.Packets() != 1 {
		t.Fatalf("flow counters = %d pkts", e.Packets())
	}
}

func TestFloodExcludesIngress(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{openflow.OutputFlood()},
	})
	r.h1.SendUDP(packet.BroadcastMAC, r.h2.IP(), 1, 2, nil)
	r.run(t, 10*time.Millisecond)
	if r.h2.RxFrames() != 1 {
		t.Fatalf("h2 rx = %d, want 1", r.h2.RxFrames())
	}
	if r.h1.RxFrames() != 0 {
		t.Fatal("flood returned frame to ingress port")
	}
}

func TestPacketOutExecution(t *testing.T) {
	r := newRig(t)
	frame := packet.NewICMPEcho(packet.MustMAC("cc:cc:cc:cc:cc:cc"), r.h2.MAC(),
		packet.MustIPv4("10.0.0.9"), r.h2.IP(), 1, 1, false)
	r.control(t, &openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  []openflow.Action{openflow.Output(2)},
		Data:     frame.Marshal(),
	})
	r.run(t, 10*time.Millisecond)
	if r.h2.RxFrames() != 1 {
		t.Fatalf("h2 rx = %d, want 1", r.h2.RxFrames())
	}
}

func TestOutputControllerAction(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{openflow.OutputController()},
	})
	r.h1.SendUDP(r.h2.MAC(), r.h2.IP(), 1, 2, nil)
	r.run(t, 10*time.Millisecond)
	pis := r.tap.packetIns()
	if len(pis) != 1 || pis[0].Reason != openflow.ReasonAction {
		t.Fatalf("packet-ins = %+v", pis)
	}
}

func TestEchoReplyMirrorsData(t *testing.T) {
	r := newRig(t)
	r.sw.HandleControl(openflow.Marshal(7, &openflow.EchoRequest{Data: []byte("t0=123")}))
	r.run(t, time.Millisecond)
	var reply *openflow.EchoReply
	for _, m := range r.tap.msgs {
		if e, ok := m.(*openflow.EchoReply); ok {
			reply = e
		}
	}
	if reply == nil || string(reply.Data) != "t0=123" {
		t.Fatalf("echo reply = %+v", reply)
	}
}

func TestFeaturesReply(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.FeaturesRequest{})
	var fr *openflow.FeaturesReply
	for _, m := range r.tap.msgs {
		if f, ok := m.(*openflow.FeaturesReply); ok {
			fr = f
		}
	}
	if fr == nil || fr.DatapathID != 0x1 || len(fr.Ports) != 2 {
		t.Fatalf("features reply = %+v", fr)
	}
}

func TestStatsReplies(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)},
	})
	r.h1.SendUDP(r.h2.MAC(), r.h2.IP(), 1, 2, []byte("abc"))
	r.run(t, 10*time.Millisecond)
	r.control(t, &openflow.StatsRequest{Kind: openflow.StatsFlow})
	r.control(t, &openflow.StatsRequest{Kind: openflow.StatsPort, PortNo: openflow.PortNone})
	var flows *openflow.StatsReply
	var ports *openflow.StatsReply
	for _, m := range r.tap.msgs {
		if s, ok := m.(*openflow.StatsReply); ok {
			switch s.Kind {
			case openflow.StatsFlow:
				flows = s
			case openflow.StatsPort:
				ports = s
			}
		}
	}
	if flows == nil || len(flows.Flows) != 1 || flows.Flows[0].Packets != 1 {
		t.Fatalf("flow stats = %+v", flows)
	}
	if ports == nil || len(ports.Ports) != 2 {
		t.Fatalf("port stats = %+v", ports)
	}
	if ports.Ports[0].RxPackets != 1 || ports.Ports[1].TxPackets != 1 {
		t.Fatalf("port counters = %+v", ports.Ports)
	}
}

func TestPortDownDetectionAfterLinkPulse(t *testing.T) {
	r := newRig(t)
	r.h1.InterfaceDown()
	r.run(t, 10*time.Millisecond)
	if len(r.tap.portStatuses()) != 0 {
		t.Fatal("port-down before link-pulse interval elapsed")
	}
	r.run(t, 10*time.Millisecond) // now 20ms > 16ms nominal
	pss := r.tap.portStatuses()
	if len(pss) != 1 || pss[0].Desc.Up || pss[0].Desc.No != 1 {
		t.Fatalf("port statuses = %+v", pss)
	}
	if r.sw.Port(1).Up() {
		t.Fatal("switch port still marked up")
	}
}

func TestFastCycleInvisibleToSwitch(t *testing.T) {
	// An interface bounced faster than the 16ms pulse interval produces no
	// Port-Status at all — so a too-hasty amnesia attempt fails.
	r := newRig(t)
	r.h1.CycleInterface(5*time.Millisecond, nil)
	r.run(t, 100*time.Millisecond)
	if n := len(r.tap.portStatuses()); n != 0 {
		t.Fatalf("port statuses = %d, want 0", n)
	}
}

func TestSlowCycleGeneratesDownThenUp(t *testing.T) {
	r := newRig(t)
	done := false
	r.h1.CycleInterface(20*time.Millisecond, func() { done = true })
	r.run(t, 100*time.Millisecond)
	if !done {
		t.Fatal("cycle callback not invoked")
	}
	pss := r.tap.portStatuses()
	if len(pss) != 2 || pss[0].Desc.Up || !pss[1].Desc.Up {
		t.Fatalf("port statuses = %+v", pss)
	}
	if !r.sw.Port(1).Up() {
		t.Fatal("port should be back up")
	}
}

func TestFramesDroppedWhilePortDown(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)},
	})
	r.h2.InterfaceDown()
	r.run(t, 30*time.Millisecond)
	r.h1.SendUDP(r.h2.MAC(), r.h2.IP(), 1, 2, nil)
	r.run(t, 10*time.Millisecond)
	if r.h2.RxFrames() != 0 {
		t.Fatal("downed host received a frame")
	}
	if r.sw.Port(2).txPackets != 0 {
		t.Fatal("switch transmitted into a down port")
	}
}

func TestFlowIdleExpiryViaTicker(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.MatchAll(), Priority: 1,
		IdleTimeout: 2,
		Actions:     []openflow.Action{openflow.Output(2)},
	})
	if r.sw.Table().Len() != 1 {
		t.Fatal("flow not installed")
	}
	r.run(t, 5*time.Second)
	if r.sw.Table().Len() != 0 {
		t.Fatal("idle flow not expired by background sweep")
	}
}

func TestMalformedControlIgnored(t *testing.T) {
	r := newRig(t)
	r.sw.HandleControl([]byte{1, 2, 3})
	r.sw.HandleControl(nil)
	r.run(t, time.Millisecond)
	if len(r.tap.msgs) != 0 {
		t.Fatal("garbage control data produced output")
	}
}

func TestHelloHandshake(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.Hello{})
	found := false
	for _, m := range r.tap.msgs {
		if _, ok := m.(*openflow.Hello); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("switch did not answer Hello")
	}
}

func TestBarrier(t *testing.T) {
	r := newRig(t)
	r.control(t, &openflow.BarrierRequest{})
	found := false
	for _, m := range r.tap.msgs {
		if _, ok := m.(*openflow.BarrierReply); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("switch did not answer BarrierRequest")
	}
}

// frameKeeper is a link peer that holds every frame it is handed.
type frameKeeper struct{ frames []*link.Frame }

func (k *frameKeeper) ReceiveFrame(f *link.Frame) { k.frames = append(k.frames, f) }
func (k *frameKeeper) CarrierChange(bool)         {}

// TestMultiEgressFramesHaveOneOwner floods a frame to three egresses,
// with and without a PacketIn after them, both as a PacketOut body and as
// a dataplane frame matching a rule: every egress must receive its own
// frame with the body's bytes, since each wire frame has exactly one
// owner, and the PacketIn must still carry the body. Every egress frame
// yields the body's tuple; a dataplane frame was parsed on ingress, and
// the original and each copy carry that tuple, so it survives even
// overwriting the bytes.
func TestMultiEgressFramesHaveOneOwner(t *testing.T) {
	for _, tc := range []struct {
		name      string
		actions   []openflow.Action
		packetIns int
	}{
		{"flood", []openflow.Action{openflow.OutputFlood()}, 0},
		{"flood-then-controller", []openflow.Action{openflow.OutputFlood(), openflow.OutputController()}, 1},
		{"output-controller-output", []openflow.Action{openflow.Output(2), openflow.OutputController(), openflow.Output(3), openflow.Output(4)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, viaPort := range []bool{false, true} {
				name := "packet-out"
				if viaPort {
					name = "dataplane"
				}
				t.Run(name, func(t *testing.T) {
					k := sim.New()
					sw := NewSwitch(k, 0x1)
					t.Cleanup(sw.Shutdown)
					tap := &controlTap{}
					sw.SetControlSender(tap.send)
					in := link.NewLink(k, sim.Const(time.Millisecond))
					sw.AddPort(1, in, link.EndA, nil)
					keepers := make([]*frameKeeper, 3)
					for i := range keepers {
						l := link.NewLink(k, sim.Const(time.Millisecond))
						sw.AddPort(uint32(i+2), l, link.EndA, nil)
						keepers[i] = &frameKeeper{}
						l.Attach(link.EndB, keepers[i])
					}
					body := packet.NewICMPEcho(packet.MustMAC("cc:cc:cc:cc:cc:cc"), packet.BroadcastMAC,
						packet.MustIPv4("10.0.0.9"), packet.MustIPv4("10.0.0.2"), 1, 1, false).Marshal()
					if viaPort {
						sw.Table().Apply(&openflow.FlowMod{
							Command: openflow.FlowAdd, Match: openflow.MatchAll(), Priority: 1, Actions: tc.actions,
						}, k.Now())
						in.Send(link.EndB, link.NewFrame(body))
					} else {
						sw.HandleControl(openflow.Marshal(7, &openflow.PacketOut{
							BufferID: openflow.NoBuffer, InPort: 1, Actions: tc.actions, Data: body,
						}))
					}
					if err := k.RunFor(10 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
					want := openflow.ExtractFields(9, body)
					seen := map[*link.Frame]bool{}
					for i, kp := range keepers {
						if len(kp.frames) != 1 {
							t.Fatalf("port %d received %d frames, want 1", i+2, len(kp.frames))
						}
						f := kp.frames[0]
						if seen[f] {
							t.Fatalf("port %d shares a frame with another egress", i+2)
						}
						seen[f] = true
						if string(f.Data) != string(body) {
							t.Fatalf("port %d received %x, want %x", i+2, f.Data, body)
						}
						if viaPort {
							clear(f.Data) // only a tuple carried from ingress survives this
						}
						if got := f.Fields(9); got != want {
							t.Fatalf("port %d frame's tuple %+v, want %+v", i+2, got, want)
						}
					}
					for _, kp := range keepers {
						kp.frames[0].Release() // a shared frame would panic here
					}
					pis := tap.packetIns()
					if len(pis) != tc.packetIns {
						t.Fatalf("%d packet-ins, want %d", len(pis), tc.packetIns)
					}
					for _, pi := range pis {
						if string(pi.Data) != string(body) {
							t.Fatalf("packet-in carries %x, want %x", pi.Data, body)
						}
					}
				})
			}
		})
	}
}
