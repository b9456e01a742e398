package netsim

import (
	"fmt"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/sim"
)

// FatTreeTopology records the identity of everything a BuildFatTree call
// created, so experiments can pick probe endpoints and defenses can be
// pointed at specific tiers without re-deriving the addressing scheme.
type FatTreeTopology struct {
	K         int
	CoreDPIDs []uint64
	AggDPIDs  []uint64
	EdgeDPIDs []uint64
	HostNames []string
	// Trunks lists every switch-to-switch link in creation order, so
	// partitioners and structural tests can walk the graph without
	// re-deriving the wiring rules.
	Trunks []FatTreeTrunk
}

// FatTreeTrunk is one switch-to-switch link of a fat-tree, recorded in
// the A/B orientation it was created with (A is the lower tier).
type FatTreeTrunk struct {
	ADPID uint64
	APort uint32
	BDPID uint64
	BPort uint32
}

// Switches reports the total switch count: (k/2)² core + k²/2 agg + k²/2
// edge, i.e. 20 for k=4 and 80 for k=8.
func (t *FatTreeTopology) Switches() int {
	return len(t.CoreDPIDs) + len(t.AggDPIDs) + len(t.EdgeDPIDs)
}

// Hosts reports the host count, k³/4.
func (t *FatTreeTopology) Hosts() int { return len(t.HostNames) }

// Fat-tree datapath-id tiers. Within a tier the low bits encode position:
// cores are numbered flat; aggregation and edge switches pack (pod,index)
// as pod*16+index. For k ≤ 16 the historical narrow bases are kept so
// existing pinned alert/figure output stays byte-identical; they are NOT
// collision-free beyond that (at k=32, agg pod 31 index 15 would reach
// 0x200+31*16+15 = 0x3FF, colliding with the edge tier), so k > 16
// switches to bases spaced 0x10000 apart. The per-tier offset pod*16+index
// is at most 31*16+15 = 511 for k=32 (index < k/2 ≤ 16 always fits four
// bits), far below the widened tier spacing.
const (
	fatTreeCoreBase = 0x100
	fatTreeAggBase  = 0x200
	fatTreeEdgeBase = 0x300

	fatTreeWideCoreBase = 0x10000
	fatTreeWideAggBase  = 0x20000
	fatTreeWideEdgeBase = 0x30000
)

func fatTreeBases(k int) (core, agg, edge uint64) {
	if k <= 16 {
		return fatTreeCoreBase, fatTreeAggBase, fatTreeEdgeBase
	}
	return fatTreeWideCoreBase, fatTreeWideAggBase, fatTreeWideEdgeBase
}

// FatTreeCoreDPID returns the DPID of core switch c in a k-ary fat-tree.
func FatTreeCoreDPID(k, c int) uint64 {
	core, _, _ := fatTreeBases(k)
	return core + uint64(c)
}

// FatTreeAggDPID returns the DPID of aggregation switch a of pod p.
func FatTreeAggDPID(k, pod, a int) uint64 {
	_, agg, _ := fatTreeBases(k)
	return agg + uint64(pod*16+a)
}

// FatTreeEdgeDPID returns the DPID of edge switch e of pod p.
func FatTreeEdgeDPID(k, pod, e int) uint64 {
	_, _, edge := fatTreeBases(k)
	return edge + uint64(pod*16+e)
}

// FatTreeTier identifies the layer a fat-tree DPID belongs to.
type FatTreeTier int

const (
	FatTreeCore FatTreeTier = iota
	FatTreeAgg
	FatTreeEdge
)

// FatTreeLocate inverts the DPID scheme for arity k: it reports the tier
// and, for aggregation/edge switches, the (pod, index) position (core
// switches report their flat number in index, pod -1). ok is false for a
// DPID outside the scheme. The shard partitioner uses it to map switches
// to pods.
func FatTreeLocate(k int, dpid uint64) (tier FatTreeTier, pod, index int, ok bool) {
	core, agg, edge := fatTreeBases(k)
	half := k / 2
	switch {
	case dpid >= core && dpid < core+uint64(half*half):
		return FatTreeCore, -1, int(dpid - core), true
	case dpid >= agg && dpid < agg+uint64(k*16):
		off := int(dpid - agg)
		if off%16 >= half {
			return 0, 0, 0, false
		}
		return FatTreeAgg, off / 16, off % 16, true
	case dpid >= edge && dpid < edge+uint64(k*16):
		off := int(dpid - edge)
		if off%16 >= half {
			return 0, 0, 0, false
		}
		return FatTreeEdge, off / 16, off % 16, true
	}
	return 0, 0, 0, false
}

// Builder is the surface BuildFatTree needs from its target. *Network
// satisfies it for every shard count (one call sequence is what keeps
// shard placement from perturbing creation order), and structural tests
// use a recording implementation that skips the simulation machinery
// entirely.
type Builder interface {
	AddSwitch(dpid uint64, controlLatency sim.Sampler) *dataplane.Switch
	AddHost(name, mac, ip string, dpid uint64, port uint32, latency sim.Sampler, opts ...dataplane.HostOption) *dataplane.Host
	AddTrunk(dpidA uint64, portA uint32, dpidB uint64, portB uint32, latency sim.Sampler) *link.Link
}

// BuildFatTree assembles a k-ary fat-tree (Al-Fares et al.) on the
// builder: (k/2)² core switches, k pods of k/2 aggregation and k/2 edge
// switches, and k/2 hosts per edge switch. k must be even, between 2 and
// 32. Trunks use trunkLatency (nil for the testbed default) and host
// access links hostLatency (nil for zero).
//
// Addressing, designed to be stable across runs and easy to read in
// alerts: core c is DPID coreBase+c; aggregation switch a of pod p is
// aggBase+p*16+a; edge switch e of pod p is edgeBase+p*16+e, with the
// tier bases 0x100/0x200/0x300 for k ≤ 16 and 0x10000/0x20000/0x30000
// above (see fatTreeBases). Edge ports 1..k/2 face hosts and k/2+1+a
// uplinks to aggregation a; aggregation port 1+e goes down to edge e and
// k/2+1+j uplinks to core a*(k/2)+j; core port 1+p goes down to pod p.
// Host h of edge e in pod p is named "p%d-e%d-h%d" with IP 10.p.e.(2+h).
func BuildFatTree(b Builder, k int, trunkLatency, hostLatency sim.Sampler) *FatTreeTopology {
	if k < 2 || k > 32 || k%2 != 0 {
		panic(fmt.Sprintf("netsim: fat-tree arity %d not an even number in [2,32]", k))
	}
	half := k / 2
	topo := &FatTreeTopology{K: k}
	addTrunk := func(a uint64, ap uint32, bb uint64, bp uint32) {
		b.AddTrunk(a, ap, bb, bp, trunkLatency)
		topo.Trunks = append(topo.Trunks, FatTreeTrunk{ADPID: a, APort: ap, BDPID: bb, BPort: bp})
	}

	for c := 0; c < half*half; c++ {
		dpid := FatTreeCoreDPID(k, c)
		b.AddSwitch(dpid, nil)
		topo.CoreDPIDs = append(topo.CoreDPIDs, dpid)
	}
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			dpid := FatTreeAggDPID(k, pod, a)
			b.AddSwitch(dpid, nil)
			topo.AggDPIDs = append(topo.AggDPIDs, dpid)
		}
		for e := 0; e < half; e++ {
			dpid := FatTreeEdgeDPID(k, pod, e)
			b.AddSwitch(dpid, nil)
			topo.EdgeDPIDs = append(topo.EdgeDPIDs, dpid)
		}
	}

	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			edge := FatTreeEdgeDPID(k, pod, e)
			for h := 0; h < half; h++ {
				name := fmt.Sprintf("p%d-e%d-h%d", pod, e, h)
				mac := fmt.Sprintf("02:00:%02x:%02x:%02x:01", pod, e, h)
				ip := fmt.Sprintf("10.%d.%d.%d", pod, e, 2+h)
				b.AddHost(name, mac, ip, edge, uint32(1+h), hostLatency)
				topo.HostNames = append(topo.HostNames, name)
			}
			for a := 0; a < half; a++ {
				addTrunk(edge, uint32(half+1+a), FatTreeAggDPID(k, pod, a), uint32(1+e))
			}
		}
		for a := 0; a < half; a++ {
			agg := FatTreeAggDPID(k, pod, a)
			for j := 0; j < half; j++ {
				addTrunk(agg, uint32(half+1+j), FatTreeCoreDPID(k, a*half+j), uint32(1+pod))
			}
		}
	}
	return topo
}

// FatTreePartition maps a k-ary fat-tree onto the given number of shards:
// shard 0 holds the controller and the core tier, and the pods are dealt
// round-robin over shards 1..shards-1. With one shard everything lands on
// shard 0 (the serial reference). Pods are never divided: intra-pod
// traffic — the bulk of a fat-tree's dataplane load once flows are
// installed — stays on one kernel, and only pod↔core trunks and control
// channels cross shards.
func FatTreePartition(k, shards int) map[uint64]int {
	part := make(map[uint64]int)
	half := k / 2
	for c := 0; c < half*half; c++ {
		part[FatTreeCoreDPID(k, c)] = 0
	}
	for pod := 0; pod < k; pod++ {
		s := 0
		if shards > 1 {
			s = 1 + pod%(shards-1)
		}
		for i := 0; i < half; i++ {
			part[FatTreeAggDPID(k, pod, i)] = s
			part[FatTreeEdgeDPID(k, pod, i)] = s
		}
	}
	return part
}
