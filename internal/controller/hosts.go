package controller

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"sdntamper/internal/obs/trace"
	"sdntamper/internal/packet"
)

// observeHost feeds one dataplane Packet-In into the Host Tracking
// Service. Bindings update only for access ports: traffic transiting
// inter-switch link ports never moves a host, mirroring Floodlight's
// attachment-point logic.
func (c *Controller) observeHost(ev *PacketInEvent) {
	src := ev.Eth.Src
	if src.IsZero() || src.IsBroadcast() || isControllerMAC(src) {
		return
	}
	loc := ev.Loc()
	if c.LinkPorts()[loc] {
		return // transit traffic on an inter-switch link
	}
	ip := ev.Fields.IPSrc
	if ev.Eth.Type == packet.EtherTypeARP {
		if arp, err := packet.DecodeARP(ev.Eth.Payload); err == nil {
			ip = arp.SenderIP
		}
	}

	entry, known := c.hosts[src]
	if known && entry.Loc == loc {
		entry.LastSeen = ev.When
		if !ip.IsZero() {
			entry.IP = ip
		}
		return
	}

	moveEv := &HostMoveEvent{
		MAC:   src,
		IP:    ip,
		New:   loc,
		IsNew: !known,
		When:  ev.When,
	}
	if known {
		moveEv.Old = entry.Loc
		moveEv.OldSeen = entry.LastSeen
		if ip.IsZero() {
			moveEv.IP = entry.IP
		}
	}
	for _, a := range c.moveApprovers {
		if !a.ApproveHostMove(moveEv) {
			return
		}
	}
	if known {
		c.logf("host %s moved %s -> %s", src, entry.Loc, loc)
		c.m.hostMoves.Inc()
		if tr := c.tracer; tr != nil {
			c.recordSpan(tr, trace.KindControl, "host-moved", loc, src.String()+" from "+entry.Loc.String())
		}
		entry.Loc = loc
		entry.LastSeen = ev.When
		if !ip.IsZero() {
			entry.IP = ip
		}
	} else {
		c.logf("host %s joined at %s", src, loc)
		c.m.hostJoins.Inc()
		if tr := c.tracer; tr != nil {
			c.recordSpan(tr, trace.KindControl, "host-joined", loc, src.String())
		}
		c.hosts[src] = &HostEntry{
			MAC:       src,
			IP:        ip,
			Loc:       loc,
			FirstSeen: ev.When,
			LastSeen:  ev.When,
		}
	}
	for _, o := range c.moveObservers {
		o.ObserveHostMove(moveEv)
	}
}

// RestoreHostLocation rebinds a host entry to a specific location. Defense
// modules use it to roll back a hijacked binding once the post-condition
// check proves the host never left.
func (c *Controller) RestoreHostLocation(mac packet.MAC, loc PortRef) {
	if entry, ok := c.hosts[mac]; ok {
		entry.Loc = loc
	}
}

// ForgetHost removes a host's tracking entry entirely.
func (c *Controller) ForgetHost(mac packet.MAC) { delete(c.hosts, mac) }

// ageDeadSwitchHosts evicts Host Tracking Service entries attached to
// switches whose control channel has been down for at least the link
// timeout. A host behind a dead switch is unverifiable — no Packet-In can
// refresh it and no probe can reach it — so after the same grace period
// links get, its binding is stale state an attacker could squat on.
// Eviction runs in MAC order so the emitted events are reproducible.
func (c *Controller) ageDeadSwitchHosts(now time.Time) {
	if len(c.deadSwitches) == 0 {
		return
	}
	var doomed []packet.MAC
	for mac, h := range c.hosts {
		down, dead := c.deadSwitches[h.Loc.DPID]
		if dead && now.Sub(down) >= c.profile.LinkTimeout {
			doomed = append(doomed, mac)
		}
	}
	sort.Slice(doomed, func(i, j int) bool {
		return bytes.Compare(doomed[i][:], doomed[j][:]) < 0
	})
	for _, mac := range doomed {
		h := c.hosts[mac]
		delete(c.hosts, mac)
		c.m.hostsAgedOut.Inc()
		if tr := c.tracer; tr != nil {
			c.recordSpan(tr, trace.KindControl, "host-aged-out", h.Loc, mac.String())
		}
		c.logf("host %s aged out: switch 0x%x dead past link timeout", mac, h.Loc.DPID)
	}
}

func isControllerMAC(m packet.MAC) bool {
	return m[0] == 0x02 && m[1] == 0xc0 && m[2] == 0xff
}

// hostDebugString renders the HTS table the way Figure 2 sketches it.
func (c *Controller) hostDebugString() string {
	out := "IP Address      MAC Address        Switch DPID  Port\n"
	for _, h := range c.Hosts() {
		out += fmt.Sprintf("%-15s %-18s 0x%-10x %d\n", h.IP, h.MAC, h.Loc.DPID, h.Loc.Port)
	}
	return out
}

// HostTableString renders the host tracking table for display.
func (c *Controller) HostTableString() string { return c.hostDebugString() }
