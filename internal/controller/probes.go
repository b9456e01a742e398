package controller

import (
	"encoding/binary"
	"sort"
	"time"

	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// statsRequestTimeout bounds how long a flow/port stats waiter may sit in
// the pending table. A switch that disconnects (or a reply lost on the
// control channel) must not leak the waiter forever: the callback fires
// with nil on expiry, exactly like an echo probe reports ok=false.
const statsRequestTimeout = 5 * time.Second

type pendingEcho struct {
	dpid    uint64
	sent    time.Time
	timeout sim.Event
	cb      func(time.Duration, bool)
}

// MeasureEchoRTT measures the raw control-channel round trip using an
// OpenFlow Echo request/reply pair.
func (c *Controller) MeasureEchoRTT(dpid uint64, timeout time.Duration, cb func(rtt time.Duration, ok bool)) {
	conn, ok := c.conns[dpid]
	if !ok {
		cb(0, false)
		return
	}
	c.probeNonce++
	data := make([]byte, 8)
	binary.BigEndian.PutUint64(data, c.probeNonce)
	xid := conn.sendMsg(&openflow.EchoRequest{Data: data})
	p := &pendingEcho{dpid: dpid, sent: c.kernel.Now(), cb: cb}
	p.timeout = c.kernel.Schedule(timeout, func() {
		delete(c.pendingEchoes, xid)
		cb(0, false)
	})
	c.pendingEchoes[xid] = p
}

func (c *Controller) resolveEcho(xid uint32) {
	p, ok := c.pendingEchoes[xid]
	if !ok {
		return
	}
	delete(c.pendingEchoes, xid)
	p.timeout.Cancel()
	p.cb(c.kernel.Now().Sub(p.sent), true)
}

// pendingPathProbe is one control-RTT probe in flight. Records are
// recycled through the controller's free list, and the timeout is
// scheduled closure-free, so a probe allocates nothing once warm.
type pendingPathProbe struct {
	c       *Controller
	nonce   uint64
	dpid    uint64
	sent    time.Time
	timeout sim.Event
	cb      func(time.Duration, bool)
}

// MeasureControlRTT implements API using the paper's §VI-D construction:
// a Packet-Out carrying a marker frame whose action list is a single
// output-to-controller, so the switch immediately bounces it back as a
// Packet-In. The elapsed time covers the full control path including the
// switch's packet-processing pipeline.
func (c *Controller) MeasureControlRTT(dpid uint64, timeout time.Duration, cb func(rtt time.Duration, ok bool)) {
	if _, ok := c.conns[dpid]; !ok {
		cb(0, false)
		return
	}
	c.probeNonce++
	var p *pendingPathProbe
	if n := len(c.freePathProbes); n > 0 {
		p = c.freePathProbes[n-1]
		c.freePathProbes = c.freePathProbes[:n-1]
	} else {
		p = &pendingPathProbe{c: c}
	}
	p.nonce, p.dpid, p.sent, p.cb = c.probeNonce, dpid, c.kernel.Now(), cb
	p.timeout = c.kernel.ScheduleArg(timeout, pathProbeTimeout, p)
	c.pendingPathProbes[p.nonce] = p
	c.frameBuf = packet.AppendEthernetHeader(c.frameBuf[:0], pathProbeMAC, pathProbeMAC, pathProbeEtherType)
	c.frameBuf = binary.BigEndian.AppendUint64(c.frameBuf, p.nonce)
	c.sendPacketOutTo(dpid, openflow.PortNone, openflow.PortController, c.frameBuf)
}

// pathProbeTimeout fails a control-RTT probe whose frame never returned.
func pathProbeTimeout(arg any) {
	p := arg.(*pendingPathProbe)
	delete(p.c.pendingPathProbes, p.nonce)
	p.c.finishPathProbe(p, 0, false)
}

// finishPathProbe recycles a probe record that has left the pending
// table, then reports the outcome.
func (c *Controller) finishPathProbe(p *pendingPathProbe, rtt time.Duration, ok bool) {
	cb := p.cb
	p.cb = nil
	c.freePathProbes = append(c.freePathProbes, p)
	cb(rtt, ok)
}

// resolvePathProbe completes the control-RTT probe whose returning
// frame carries payload.
func (c *Controller) resolvePathProbe(payload []byte) {
	if len(payload) < 8 {
		return
	}
	nonce := binary.BigEndian.Uint64(payload[:8])
	p, ok := c.pendingPathProbes[nonce]
	if !ok {
		return
	}
	delete(c.pendingPathProbes, nonce)
	p.timeout.Cancel()
	c.finishPathProbe(p, c.kernel.Now().Sub(p.sent), true)
}

type pendingHostProbe struct {
	dpid    uint64
	timeout sim.Event
	cb      func(bool)
}

// ProbeHost implements API: it pings a host identity at a specific switch
// port from the controller's own addresses. TopoGuard's host-migration
// post-condition ("the host must be unreachable at its previous location")
// is built on this.
func (c *Controller) ProbeHost(loc PortRef, mac packet.MAC, ip packet.IPv4Addr, timeout time.Duration, cb func(alive bool)) {
	if _, ok := c.conns[loc.DPID]; !ok {
		cb(false)
		return
	}
	c.icmpID++
	id := c.icmpID
	p := &pendingHostProbe{dpid: loc.DPID, cb: cb}
	p.timeout = c.kernel.Schedule(timeout, func() {
		delete(c.pendingHostProbes, id)
		cb(false)
	})
	c.pendingHostProbes[id] = p
	echo := packet.NewICMPEcho(ControllerMAC, mac, ControllerIP, ip, id, 1, false)
	c.sendPacketOutTo(loc.DPID, openflow.PortNone, loc.Port, echo.Marshal())
}

// resolveHostProbe intercepts ICMP echo replies addressed to the
// controller's probe identity. It reports true when the event was an
// internal probe reply (and so must not reach the host/forwarding
// pipeline).
func (c *Controller) resolveHostProbe(ev *PacketInEvent) bool {
	if ev.Eth.Dst != ControllerMAC || ev.Eth.Type != packet.EtherTypeIPv4 {
		return false
	}
	ip, err := packet.UnmarshalIPv4(ev.Eth.Payload)
	if err != nil || ip.Protocol != packet.ProtoICMP {
		return true // addressed to the controller; never forward
	}
	m, err := packet.UnmarshalICMP(ip.Payload)
	if err != nil || m.Type != packet.ICMPEchoReply {
		return true
	}
	if p, ok := c.pendingHostProbes[m.ID]; ok {
		delete(c.pendingHostProbes, m.ID)
		p.timeout.Cancel()
		p.cb(true)
	}
	return true
}

type pendingStats struct {
	dpid    uint64
	timeout sim.Event
	flowCB  func([]openflow.FlowStats)
	portCB  func([]openflow.PortStats)
}

// fail invokes the waiter's callback with the empty reply it carries for
// the lost-reply case.
func (w pendingStats) fail() {
	if w.flowCB != nil {
		w.flowCB(nil)
	}
	if w.portCB != nil {
		w.portCB(nil)
	}
}

// RequestFlowStats implements API. A reply that never arrives (lost on the
// control channel, or the switch disconnects) resolves the callback with
// nil after statsRequestTimeout instead of leaking the waiter.
func (c *Controller) RequestFlowStats(dpid uint64, cb func([]openflow.FlowStats)) {
	conn, ok := c.conns[dpid]
	if !ok {
		cb(nil)
		return
	}
	xid := conn.sendMsg(&openflow.StatsRequest{Kind: openflow.StatsFlow, PortNo: openflow.PortNone})
	c.registerStatsWaiter(xid, pendingStats{dpid: dpid, flowCB: cb})
}

// RequestPortStats implements API, with the same timeout treatment as
// RequestFlowStats. It asks for every port on the switch.
func (c *Controller) RequestPortStats(dpid uint64, cb func([]openflow.PortStats)) {
	c.RequestPortStatsFor(dpid, openflow.PortNone, cb)
}

// RequestPortStatsFor implements API: a port-stats request scoped to one
// port number (openflow.PortNone asks for all ports). The callback
// distinguishes three outcomes:
//
//   - nil slice: no answer — unknown dpid, switch disconnect, or reply
//     lost past statsRequestTimeout;
//   - empty non-nil slice: the switch answered and has no matching port
//     (OpenFlow 1.0 empty OFPST_PORT body, not an error message);
//   - entries: counters for the matching port(s).
func (c *Controller) RequestPortStatsFor(dpid uint64, portNo uint32, cb func([]openflow.PortStats)) {
	conn, ok := c.conns[dpid]
	if !ok {
		cb(nil)
		return
	}
	xid := conn.sendMsg(&openflow.StatsRequest{Kind: openflow.StatsPort, PortNo: portNo})
	c.registerStatsWaiter(xid, pendingStats{dpid: dpid, portCB: cb})
}

func (c *Controller) registerStatsWaiter(xid uint32, w pendingStats) {
	w.timeout = c.kernel.Schedule(statsRequestTimeout, func() {
		w, ok := c.statsWaiters()[xid]
		if !ok {
			return
		}
		delete(c.pendingStats, xid)
		c.m.probesFailed.Inc()
		w.fail()
	})
	c.statsWaiters()[xid] = w
}

func (c *Controller) statsWaiters() map[uint32]pendingStats {
	if c.pendingStats == nil {
		c.pendingStats = make(map[uint32]pendingStats)
	}
	return c.pendingStats
}

func (c *Controller) resolveStats(xid uint32, reply *openflow.StatsReply) {
	w, ok := c.statsWaiters()[xid]
	if !ok {
		return
	}
	delete(c.pendingStats, xid)
	w.timeout.Cancel()
	switch reply.Kind {
	case openflow.StatsFlow:
		if w.flowCB != nil {
			w.flowCB(reply.Flows)
		}
	case openflow.StatsPort:
		if w.portCB != nil {
			ports := reply.Ports
			if ports == nil {
				// The switch answered with an empty body (request scoped
				// to a port it does not have). Normalize to a non-nil
				// empty slice so callers can tell "authoritative empty"
				// from the nil that timeout/disconnect paths deliver.
				ports = []openflow.PortStats{}
			}
			w.portCB(ports)
		}
	}
}

// failPendingProbes resolves and removes every pending echo, path probe,
// host probe and stats waiter bound to a switch, canceling each entry's
// timeout event so nothing fires (or lingers in the kernel queue) after
// the fast failure. Callbacks run in sorted key order: they may schedule
// work or draw randomness, and map iteration order would make runs
// irreproducible.
func (c *Controller) failPendingProbes(dpid uint64) {
	echoXIDs := make([]uint32, 0, len(c.pendingEchoes))
	for xid, p := range c.pendingEchoes {
		if p.dpid == dpid {
			echoXIDs = append(echoXIDs, xid)
		}
	}
	sort.Slice(echoXIDs, func(i, j int) bool { return echoXIDs[i] < echoXIDs[j] })
	for _, xid := range echoXIDs {
		p := c.pendingEchoes[xid]
		delete(c.pendingEchoes, xid)
		p.timeout.Cancel()
		c.m.probesFailed.Inc()
		p.cb(0, false)
	}

	nonces := make([]uint64, 0, len(c.pendingPathProbes))
	for nonce, p := range c.pendingPathProbes {
		if p.dpid == dpid {
			nonces = append(nonces, nonce)
		}
	}
	sort.Slice(nonces, func(i, j int) bool { return nonces[i] < nonces[j] })
	for _, nonce := range nonces {
		p := c.pendingPathProbes[nonce]
		delete(c.pendingPathProbes, nonce)
		p.timeout.Cancel()
		c.m.probesFailed.Inc()
		c.finishPathProbe(p, 0, false)
	}

	ids := make([]uint16, 0, len(c.pendingHostProbes))
	for id, p := range c.pendingHostProbes {
		if p.dpid == dpid {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := c.pendingHostProbes[id]
		delete(c.pendingHostProbes, id)
		p.timeout.Cancel()
		c.m.probesFailed.Inc()
		p.cb(false)
	}

	statsXIDs := make([]uint32, 0, len(c.pendingStats))
	for xid, w := range c.pendingStats {
		if w.dpid == dpid {
			statsXIDs = append(statsXIDs, xid)
		}
	}
	sort.Slice(statsXIDs, func(i, j int) bool { return statsXIDs[i] < statsXIDs[j] })
	for _, xid := range statsXIDs {
		w := c.pendingStats[xid]
		delete(c.pendingStats, xid)
		w.timeout.Cancel()
		c.m.probesFailed.Inc()
		w.fail()
	}
}

// PendingProbeCounts is a diagnostic snapshot of the controller's pending
// probe tables. Chaos and leak tests assert all of them return to zero
// after fault episodes.
type PendingProbeCounts struct {
	Echoes     int
	PathProbes int
	HostProbes int
	Stats      int
	// Discovery counts sOFTDP's armed debounce probes (always zero
	// under OFDP). Included in the zero-leak invariant: once a fault
	// episode's debounce windows drain, no pending probe may remain.
	Discovery int
}

// Total sums all pending entries.
func (p PendingProbeCounts) Total() int {
	return p.Echoes + p.PathProbes + p.HostProbes + p.Stats + p.Discovery
}

// PendingProbes reports how many probe waiters of each kind are currently
// outstanding.
func (c *Controller) PendingProbes() PendingProbeCounts {
	out := PendingProbeCounts{
		Echoes:     len(c.pendingEchoes),
		PathProbes: len(c.pendingPathProbes),
		HostProbes: len(c.pendingHostProbes),
		Stats:      len(c.pendingStats),
	}
	if mgr := c.SOFTDPManager(); mgr != nil {
		out.Discovery = mgr.PendingProbes()
	}
	return out
}
