package controller

import (
	"hash/fnv"
	"time"

	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
)

// forward implements the reactive forwarding service: known unicast
// destinations get a shortest-path flow installed; everything else floods
// over access ports.
func (c *Controller) forward(ev *PacketInEvent) {
	dst := ev.Eth.Dst
	if dst.IsBroadcast() || dst == lldpMulticast {
		c.flood(ev)
		return
	}
	target, known := c.hosts[dst]
	if !known {
		c.flood(ev)
		return
	}
	src := ev.Loc()
	path, ok := c.shortestPath(src.DPID, target.Loc.DPID)
	if !ok {
		c.m.floodFallback.Inc()
		c.flood(ev)
		return
	}
	if !c.installPath(path, target.Loc.Port, dst) {
		// A hop had no egress port (the link set changed under the path):
		// fall back to flooding rather than installing flows toward a
		// nonexistent port.
		c.m.floodFallback.Inc()
		c.flood(ev)
		return
	}
	// Release the triggering packet along the now-programmed path.
	first := path[0]
	out := target.Loc.Port
	if len(path) > 1 {
		p, ok := c.egressPort(path[0], path[1])
		if !ok {
			c.m.floodFallback.Inc()
			c.flood(ev)
			return
		}
		out = p
	}
	c.sendPacketOutTo(first, ev.InPort, out, ev.Data)
}

var lldpMulticast = packet.MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e}

// floodEntry records one recently flooded frame and where it entered.
type floodEntry struct {
	at     time.Time
	origin PortRef
}

// isRecentFlood reports whether the frame is one the controller recently
// flooded, now re-entering from a different port (e.g. over a trunk that
// is not yet in the topology). A host re-transmitting identical bytes
// from the original port is NOT suppressed: repeated ARP probes are
// legitimately byte-identical.
func (c *Controller) isRecentFlood(ev *PacketInEvent) bool {
	h := fnv.New64a()
	h.Write(ev.Data)
	entry, ok := c.floodCache[h.Sum64()]
	return ok && c.kernel.Now().Sub(entry.at) < floodCacheWindow && entry.origin != ev.Loc()
}

// flood delivers a packet out of every access port in the network except
// the ingress port. Flooding only access ports (never inferred link
// ports) keeps broadcast delivery loop-free even in cyclic or tampered
// topologies; a dedup cache suppresses re-floods of the same frame
// re-entering via another switch.
func (c *Controller) flood(ev *PacketInEvent) {
	c.m.floods.Inc()
	h := fnv.New64a()
	h.Write(ev.Data)
	key := h.Sum64()
	now := c.kernel.Now()
	c.floodCache[key] = floodEntry{at: now, origin: ev.Loc()}
	// Expired entries are only memory (isRecentFlood checks the age), so
	// the sweep runs once the cache doubles past what the last one kept:
	// amortised O(1) per flood even when a flood keeps every entry live.
	if len(c.floodCache) > max(floodCacheSweepMin, c.floodSweep) {
		for k, entry := range c.floodCache {
			if now.Sub(entry.at) >= floodCacheWindow {
				delete(c.floodCache, k)
			}
		}
		c.floodSweep = 2 * len(c.floodCache)
	}

	linkPorts := c.LinkPorts()
	origin := ev.Loc()
	// Sorted iteration keeps runs reproducible: map order would reorder
	// frame emissions and hence downstream RNG draws.
	for _, dpid := range c.Switches() {
		conn := c.conns[dpid]
		actions := c.floodActions[:0]
		for _, no := range c.sortedPortsInto(conn.ports) {
			if !conn.ports[no].Up {
				continue
			}
			ref := PortRef{DPID: dpid, Port: no}
			if ref == origin || linkPorts[ref] {
				continue
			}
			actions = append(actions, openflow.Output(no))
		}
		if len(actions) > 0 {
			c.sendPacketOut(dpid, openflow.PortNone, actions, ev.Data)
		}
		c.floodActions = actions[:0]
	}
}

// shortestPath resolves the switch sequence from src to dst (inclusive)
// over the directed link topology. Results are memoized per (src, dst) in
// the topology cache until the link set changes, so steady-state
// Packet-Ins skip the BFS entirely. The returned slice is shared with the
// cache: callers must treat it as read-only.
func (c *Controller) shortestPath(src, dst uint64) ([]uint64, bool) {
	if src == dst {
		return []uint64{src}, true
	}
	t := c.ensureTopo()
	key := switchPair{src: src, dst: dst}
	if path, hit := t.paths[key]; hit {
		c.m.topoHits.Inc()
		return path, path != nil
	}
	c.m.topoMisses.Inc()
	path := bfsPath(t.adj, src, dst)
	t.paths[key] = path
	return path, path != nil
}

// egressPort finds the local port on switch a that reaches switch b,
// reporting false when no such link exists (callers fall back to
// flooding). Among parallel links the earliest-discovered one wins (ties
// broken by port number), so a later-fabricated parallel link does not
// displace an established trunk from routing decisions. Selections are
// memoized per switch pair until the link set changes.
func (c *Controller) egressPort(a, b uint64) (uint32, bool) {
	t := c.ensureTopo()
	key := switchPair{src: a, dst: b}
	if sel, hit := t.egress[key]; hit {
		c.m.topoHits.Inc()
		return sel.port, sel.found
	}
	c.m.topoMisses.Inc()
	var best Link
	found := false
	for l := range c.links {
		if l.Src.DPID != a || l.Dst.DPID != b {
			continue
		}
		if !found {
			best, found = l, true
			continue
		}
		bl, bb := c.linkBorn[l], c.linkBorn[best]
		if bl.Before(bb) || (bl.Equal(bb) && l.Src.Port < best.Src.Port) {
			best = l
		}
	}
	t.egress[key] = egressSel{port: best.Src.Port, found: found}
	if !found {
		return 0, false
	}
	return best.Src.Port, true
}

// installPath pushes destination-match flow rules along the switch path,
// ending at the destination host's access port. It resolves every egress
// port before touching any switch and reports false — installing nothing —
// if any hop lacks one, so a half-programmed path toward a nonexistent
// port can never be committed.
func (c *Controller) installPath(path []uint64, finalPort uint32, dst packet.MAC) bool {
	outs := make([]uint32, len(path))
	for i, dpid := range path {
		if i == len(path)-1 {
			outs[i] = finalPort
			continue
		}
		out, ok := c.egressPort(dpid, path[i+1])
		if !ok {
			return false
		}
		outs[i] = out
	}
	match := openflow.Match{
		Wildcards: openflow.WildAll &^ openflow.WildEthDst,
		Fields:    openflow.Fields{EthDst: dst},
	}
	for i, dpid := range path {
		c.sendFlowMod(dpid, &openflow.FlowMod{
			Command:     openflow.FlowAdd,
			Match:       match,
			Priority:    flowPriority,
			IdleTimeout: flowIdleTimeoutSecs,
			Actions:     []openflow.Action{openflow.Output(outs[i])},
		})
	}
	return true
}

// PathBetweenHosts reports the switch path currently serving traffic from
// one host MAC to another, for assertions in tests and experiments.
func (c *Controller) PathBetweenHosts(src, dst packet.MAC) ([]uint64, bool) {
	s, okS := c.hosts[src]
	d, okD := c.hosts[dst]
	if !okS || !okD {
		return nil, false
	}
	path, ok := c.shortestPath(s.Loc.DPID, d.Loc.DPID)
	if !ok {
		return nil, false
	}
	// The cached path is shared with the forwarding hot path; hand
	// external callers their own copy.
	out := make([]uint64, len(path))
	copy(out, path)
	return out, true
}
