package controller

import (
	"cmp"
	"slices"
	"sort"

	"sdntamper/internal/obs/trace"
)

// topoCache holds incrementally maintained derived views of the link
// topology so the reactive-forwarding hot path does not rebuild them per
// Packet-In: the BFS adjacency map, memoized per-(src,dst) shortest
// paths, and the selected egress port per adjacent switch pair. The
// views are dropped wholesale whenever the link set (or a link's birth
// time, which drives parallel-link tie-breaking) changes — link adds,
// timeout sweeps, Port-Down evictions — and rebuilt lazily on the next
// query; a plain LLDP refresh of an existing link leaves them intact.
type topoCache struct {
	valid  bool
	adj    map[uint64][]uint64      // switch -> neighbor DPIDs, ascending
	paths  map[switchPair][]uint64  // memoized BFS results; nil = no path
	egress map[switchPair]egressSel // memoized egress-port selections

	// ports is LinkPorts' answer, built on first use after an
	// invalidation. A published map is never written again: a rebuild
	// makes a new one, so a caller holding the old one keeps a snapshot.
	ports      map[PortRef]bool
	portsValid bool
}

// switchPair keys the per-(src,dst) caches.
type switchPair struct {
	src uint64
	dst uint64
}

// egressSel is one cached egressPort answer.
type egressSel struct {
	port  uint32
	found bool
}

// invalidateTopo drops every derived topology view; the next forwarding
// query rebuilds them from c.links.
func (c *Controller) invalidateTopo() {
	c.topo.valid = false
	c.topo.portsValid = false
}

// sortLinks orders links by (Src, Dst) so every bulk operation over the
// link map — snapshots, evictions — runs in a reproducible order. It
// does not allocate, so the per-second sweep costs nothing when it
// evicts nothing.
func sortLinks(ls []Link) {
	slices.SortFunc(ls, func(a, b Link) int {
		return cmp.Or(
			cmp.Compare(a.Src.DPID, b.Src.DPID), cmp.Compare(a.Src.Port, b.Src.Port),
			cmp.Compare(a.Dst.DPID, b.Dst.DPID), cmp.Compare(a.Dst.Port, b.Dst.Port))
	})
}

// removeLinksMatching evicts every link the predicate selects, emitting
// one link-removed event per eviction in sorted link order (event and
// metric order must not depend on map iteration), and reports how many
// links left the topology.
func (c *Controller) removeLinksMatching(pred func(Link) bool, reason string) int {
	// The selection is built in the controller's scratch slice, taken for
	// the duration of the call so that an eviction an observer triggers
	// gets a fresh one instead of overwriting this one.
	doomed := c.doomed[:0]
	c.doomed = nil
	for l := range c.links {
		if pred(l) {
			doomed = append(doomed, l)
		}
	}
	sortLinks(doomed)
	for _, l := range doomed {
		c.removeLink(l, reason, reason)
	}
	if len(doomed) > 0 {
		c.invalidateTopo()
	}
	c.doomed = doomed[:0]
	return len(doomed)
}

// removeLink evicts one link that is in the topology and announces it:
// a link-removed span whose detail is "prefix link" when tracing, then
// the removal observers and the discovery strategy with reason. The
// caller invalidates the topology cache.
func (c *Controller) removeLink(l Link, reason, prefix string) {
	delete(c.links, l)
	delete(c.linkBorn, l)
	c.m.linksRemoved.Inc()
	if tr := c.tracer; tr != nil {
		c.recordSpan(tr, trace.KindControl, "link-removed", l.Src, linkDetail(prefix, l))
	}
	for _, o := range c.removalObservers {
		o.ObserveLinkRemoved(l, reason)
	}
	c.discovery.linkRemoved(l, reason)
}

// linkDetail renders "prefix link" for a topology span in one
// allocation.
func linkDetail(prefix string, l Link) string {
	var buf [96]byte
	b := append(buf[:0], prefix...)
	b = append(b, ' ')
	return string(l.appendTo(b))
}

// ensureTopo rebuilds the derived views after an invalidation and returns
// the cache. The adjacency lists are deduplicated (parallel links collapse
// to one neighbor entry) and sorted ascending, so BFS tie-breaking is
// deterministic rather than at the mercy of map iteration order.
func (c *Controller) ensureTopo() *topoCache {
	t := &c.topo
	if t.valid {
		return t
	}
	c.m.topoRebuilds.Inc()
	adj := make(map[uint64][]uint64)
	seen := make(map[switchPair]bool, len(c.links))
	for l := range c.links {
		p := switchPair{src: l.Src.DPID, dst: l.Dst.DPID}
		if seen[p] {
			continue
		}
		seen[p] = true
		adj[p.src] = append(adj[p.src], p.dst)
	}
	for _, neighbors := range adj {
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	}
	t.adj = adj
	t.paths = make(map[switchPair][]uint64)
	t.egress = make(map[switchPair]egressSel)
	t.valid = true
	return t
}

// bfsPath runs breadth-first search over the adjacency map, returning the
// switch sequence from src to dst inclusive, or nil when unreachable.
func bfsPath(adj map[uint64][]uint64, src, dst uint64) []uint64 {
	prev := map[uint64]uint64{src: src}
	queue := []uint64{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if _, visited := prev[next]; visited {
				continue
			}
			prev[next] = cur
			if next == dst {
				var path []uint64
				for at := dst; ; at = prev[at] {
					path = append([]uint64{at}, path...)
					if at == src {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
}
