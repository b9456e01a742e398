package controller

import (
	"time"

	"sdntamper/internal/openflow"
	"sdntamper/internal/sim"
	"sdntamper/internal/softdp"
)

// discoveryStrategy is the seam between the controller core and its link
// discovery machinery. The periodic OFDP sweep (discovery ticker + link
// timeout sweep) is one implementation; event-driven sOFTDP is the
// other. The core calls the strategy at every topology-relevant event
// and the strategy decides when LLDP probes leave and when links are
// declared dead.
type discoveryStrategy interface {
	// start arms the strategy's timers; called once from New and again
	// from Resume after a stop.
	start()
	// stop cancels the strategy's timers (controller Shutdown).
	stop()
	// switchConnected runs after a FeaturesReply completes the handshake,
	// with the switch's advertised ports.
	switchConnected(conn *Conn, msg *openflow.FeaturesReply)
	// switchDisconnected runs after Disconnect has torn down the switch's
	// links and pending probes.
	switchDisconnected(dpid uint64)
	// portStatus runs after a Port-Status event has been distributed to
	// observers (and, for Port-Down, after link eviction).
	portStatus(ev *PortStatusEvent)
	// linkSeen runs after an LLDP round trip has been accepted into the
	// topology.
	linkSeen(ev *LinkEvent)
	// linkRemoved runs after any link eviction commits, whatever its
	// trigger (sweep timeout, port-down, switch-down, defense API call,
	// cluster import).
	linkRemoved(l Link, reason string)
	// pathState delivers a BFD path-state transition for a registered
	// physical path (see RegisterPathAnchor).
	pathState(a, b PortRef, alive bool)
}

// newDiscoveryStrategy builds the strategy selected by the profile.
func newDiscoveryStrategy(c *Controller) discoveryStrategy {
	switch c.profile.Discovery {
	case DiscoverySOFTDP:
		return newSOFTDPStrategy(c)
	default:
		return &ofdpStrategy{c: c}
	}
}

// ofdpStrategy is the classic OFDP sweep: one LLDP Packet-Out per up
// port per discovery interval, plus a 1 s sweep that evicts links past
// the profile's link timeout. This is the byte-identical continuation of
// the controller's original fixed tickers.
type ofdpStrategy struct {
	c               *Controller
	discoveryTicker *sim.Ticker
	sweepTicker     *sim.Ticker
	stopped         bool
}

func (o *ofdpStrategy) start() {
	o.stopped = false
	o.discoveryTicker = o.c.kernel.NewTicker(o.c.profile.DiscoveryInterval, o.runDiscovery)
	o.sweepTicker = o.c.kernel.NewTicker(linkSweepInterval, o.c.sweepLinks)
}

func (o *ofdpStrategy) stop() {
	o.stopped = true
	o.discoveryTicker.Stop()
	o.sweepTicker.Stop()
}

// runDiscovery emits one LLDP probe per connected switch port, exactly as
// Floodlight's LinkDiscoveryManager does each discovery interval: a
// Packet-Out per port whose payload is an LLDP frame naming the origin
// (chassis = DPID, port id = port number). Iteration is sorted so runs
// are reproducible (map order would otherwise reorder RNG draws).
//
// With Profile.DiscoveryStagger set, each port's emission is deferred by
// a deterministic per-port offset within the interval instead of firing
// in one same-instant burst — the schedule depends only on the trial
// seed and the port identity, so staggered runs are reproducible too.
func (o *ofdpStrategy) runDiscovery() {
	c := o.c
	for _, dpid := range c.Switches() {
		conn := c.conns[dpid]
		for _, no := range c.sortedPortsInto(conn.ports) {
			if !conn.ports[no].Up {
				continue
			}
			if c.profile.DiscoveryStagger {
				o.scheduleStaggered(dpid, no)
			} else {
				c.emitLLDP(dpid, no)
			}
		}
	}
}

// staggerTag namespaces the MixSeed draws behind stagger offsets.
const staggerTag uint64 = 0x0fd9

// scheduleStaggered defers one port's probe by its fixed per-port offset
// into the current interval. The emission re-checks switch and port
// liveness (and that the strategy was not stopped) at fire time, since
// the deferral window is long enough for both to change.
func (o *ofdpStrategy) scheduleStaggered(dpid uint64, port uint32) {
	c := o.c
	offset := time.Duration(uint64(sim.MixSeed(c.seed, staggerTag, dpid, uint64(port))) % uint64(c.profile.DiscoveryInterval))
	c.kernel.Schedule(offset, func() {
		if o.stopped {
			return
		}
		conn, ok := c.conns[dpid]
		if !ok {
			return
		}
		if p, ok := conn.ports[port]; !ok || !p.Up {
			return
		}
		c.emitLLDP(dpid, port)
	})
}

func (o *ofdpStrategy) switchConnected(conn *Conn, msg *openflow.FeaturesReply) {
	// Floodlight probes a switch's ports as soon as it joins rather
	// than waiting out a full discovery interval.
	for _, p := range msg.Ports {
		if p.Up {
			o.c.emitLLDP(conn.dpid, p.No)
		}
	}
}

func (o *ofdpStrategy) switchDisconnected(uint64) {}

func (o *ofdpStrategy) portStatus(ev *PortStatusEvent) {
	// A restored port is probed immediately, as Floodlight's link
	// discovery reacts to port-status changes.
	if !ev.Down() {
		o.c.emitLLDP(ev.DPID, ev.Status.Desc.No)
	}
}

func (o *ofdpStrategy) linkSeen(*LinkEvent)            {}
func (o *ofdpStrategy) linkRemoved(Link, string)       {}
func (o *ofdpStrategy) pathState(_, _ PortRef, _ bool) {}

// softdpStrategy adapts the event-driven softdp.Manager to the
// controller: probes leave only on port/switch/topology events, each
// discovered link runs a per-link session whose BFD path watch and
// refresh timeout replace the periodic link sweep, and a 1 s maintenance
// ticker keeps the non-discovery halves of the old sweep (host aging,
// stale pending-LLDP stamps) alive.
type softdpStrategy struct {
	c     *Controller
	mgr   *softdp.Manager
	maint *sim.Ticker
}

func newSOFTDPStrategy(c *Controller) *softdpStrategy {
	s := &softdpStrategy{c: c}
	s.mgr = softdp.NewManager(c.seed, softdp.DefaultConfig(), softdp.Hooks{
		Schedule: c.kernel.Schedule,
		EmitProbe: func(p softdp.Port) {
			conn, ok := c.conns[p.DPID]
			if !ok {
				return
			}
			if desc, ok := conn.ports[p.No]; !ok || !desc.Up {
				return
			}
			c.emitLLDP(p.DPID, p.No)
		},
		Evict: func(l softdp.Link, reason string) {
			cl := fromSoftdpLink(l)
			if _, ok := c.links[cl]; ok {
				c.removeLink(cl, reason, reason)
				c.invalidateTopo()
			}
		},
		PathState: func(l softdp.Link) (alive, anchored bool) {
			return c.pathAnchorState(fromSoftdpPort(l.Src), fromSoftdpPort(l.Dst))
		},
		Sessions: func(n int) { c.m.bfdSessions.Set(int64(n)) },
		Logf:     func(format string, args ...any) { c.logf(format, args...) },
	})
	return s
}

func toSoftdpPort(p PortRef) softdp.Port   { return softdp.Port{DPID: p.DPID, No: p.Port} }
func fromSoftdpPort(p softdp.Port) PortRef { return PortRef{DPID: p.DPID, Port: p.No} }
func fromSoftdpLink(l softdp.Link) Link {
	return Link{Src: fromSoftdpPort(l.Src), Dst: fromSoftdpPort(l.Dst)}
}
func toSoftdpLink(l Link) softdp.Link {
	return softdp.Link{Src: toSoftdpPort(l.Src), Dst: toSoftdpPort(l.Dst)}
}

func (s *softdpStrategy) start() {
	s.maint = s.c.kernel.NewTicker(linkSweepInterval, s.maintain)
	s.mgr.Resume()
}

func (s *softdpStrategy) stop() {
	s.maint.Stop()
	s.mgr.Stop()
}

// maintain runs the sweep's non-discovery chores on the old 1 s cadence:
// aging pending LLDP departure stamps whose probes never came back, and
// aging host entries stranded on long-dead switches. Link eviction is
// NOT here — that is the sessions' job.
func (s *softdpStrategy) maintain() {
	c := s.c
	now := c.kernel.Now()
	for ref, pend := range c.pendingLLDP {
		if now.Sub(pend.at) >= c.profile.LinkTimeout {
			delete(c.pendingLLDP, ref)
		}
	}
	c.ageDeadSwitchHosts(now)
}

func (s *softdpStrategy) switchConnected(conn *Conn, msg *openflow.FeaturesReply) {
	// A joining switch is probed immediately, port order as advertised —
	// the switch-connect event is one of sOFTDP's probe triggers, and
	// keeping OFDP's emission order makes the two protocols' connect
	// behavior directly comparable.
	for _, p := range msg.Ports {
		if p.Up {
			s.c.emitLLDP(conn.dpid, p.No)
		}
	}
}

func (s *softdpStrategy) switchDisconnected(dpid uint64) {
	s.mgr.SwitchGone(dpid)
}

func (s *softdpStrategy) portStatus(ev *PortStatusEvent) {
	p := toSoftdpPort(ev.Loc())
	if ev.Down() {
		s.mgr.PortDown(p)
	} else {
		s.mgr.PortEvent(p)
	}
}

func (s *softdpStrategy) linkSeen(ev *LinkEvent) {
	s.mgr.LinkSeen(toSoftdpLink(ev.Link), ev.IsNew)
}

func (s *softdpStrategy) linkRemoved(l Link, _ string) {
	s.mgr.LinkRemoved(toSoftdpLink(l))
}

func (s *softdpStrategy) pathState(a, b PortRef, alive bool) {
	s.mgr.PathState(toSoftdpPort(a), toSoftdpPort(b), alive)
}

// Manager exposes the underlying softdp manager for white-box assertions
// (session counts, pending-probe leak checks); nil under OFDP.
func (c *Controller) SOFTDPManager() *softdp.Manager {
	if s, ok := c.discovery.(*softdpStrategy); ok {
		return s.mgr
	}
	return nil
}

// pathKey names an unordered physical port pair carrying a BFD anchor.
type pathKey struct {
	a, b PortRef
}

func normPathKey(a, b PortRef) pathKey {
	if b.DPID < a.DPID || (b.DPID == a.DPID && b.Port < a.Port) {
		a, b = b, a
	}
	return pathKey{a: a, b: b}
}

// RegisterPathAnchor declares that a physical path (a trunk) exists
// between the two ports and is currently alive, giving any link
// discovered over it a BFD anchor. The embedding network layer calls
// this at trunk creation; fabricated links never get an anchor, which is
// what exposes them to sOFTDP's refresh-timeout eviction.
func (c *Controller) RegisterPathAnchor(a, b PortRef) {
	c.pathAnchors[normPathKey(a, b)] = true
}

// NotifyPathState delivers a BFD path-state transition observed on a
// registered path: alive=false when the path stops delivering (carrier
// loss on either end, total frame loss), alive=true when it recovers.
// The controller mirrors the state locally — strategies read only the
// mirror, never the dataplane — and forwards the transition to the
// discovery strategy. Must be invoked on the controller's kernel (or
// between runs), like every other controller entry point.
func (c *Controller) NotifyPathState(a, b PortRef, alive bool) {
	c.pathAnchors[normPathKey(a, b)] = alive
	c.discovery.pathState(a, b, alive)
}

// pathAnchorState reports the mirrored liveness of the path under a
// (directed) link and whether the link has a registered anchor at all.
func (c *Controller) pathAnchorState(a, b PortRef) (alive, anchored bool) {
	alive, anchored = c.pathAnchors[normPathKey(a, b)]
	return alive, anchored
}
