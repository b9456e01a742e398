package controller

import (
	"testing"

	"sdntamper/internal/openflow"
	"sdntamper/internal/sim"
)

// White-box benchmarks of the reactive-forwarding hot path: shortest-path
// resolution and egress-port selection. These are the per-PacketIn costs
// the topology cache amortizes (CHANGES.md records the before/after from
// when the cache landed).

// benchLineTopology wires a bidirectional line of n switches directly into
// the controller's link tables, the way LLDP discovery would.
func benchLineTopology(b *testing.B, n int) (*Controller, *sim.Kernel) {
	b.Helper()
	k := sim.New()
	c := New(k)
	b.Cleanup(c.Shutdown)
	now := k.Now()
	for i := 1; i < n; i++ {
		fwd := Link{
			Src: PortRef{DPID: uint64(i), Port: 2},
			Dst: PortRef{DPID: uint64(i + 1), Port: 1},
		}
		rev := fwd.Reverse()
		c.links[fwd], c.linkBorn[fwd] = now, now
		c.links[rev], c.linkBorn[rev] = now, now
	}
	return c, k
}

func benchShortestPath(b *testing.B, n int) {
	c, _ := benchLineTopology(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, ok := c.shortestPath(1, uint64(n))
		if !ok || len(path) != n {
			b.Fatalf("path = %v ok = %v", path, ok)
		}
	}
}

// benchEgress resolves one egress port, failing the benchmark on a miss.
func benchEgress(b *testing.B, c *Controller, from, to uint64) {
	if _, ok := c.egressPort(from, to); !ok {
		b.Fatal("no egress port")
	}
}

func BenchmarkShortestPathLine8(b *testing.B)  { benchShortestPath(b, 8) }
func BenchmarkShortestPathLine32(b *testing.B) { benchShortestPath(b, 32) }

func BenchmarkEgressPortLine32(b *testing.B) {
	c, _ := benchLineTopology(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEgress(b, c, 16, 17)
	}
}

// benchDiscoveryController builds a controller whose connection table
// mimics a discovered fabric — switches×ports up ports behind no-op
// transmit functions — so one runDiscovery call exercises the full
// per-round sweep (sorted port iteration, LLDP construction, Packet-Out
// marshaling) without any dataplane.
func benchDiscoveryController(b *testing.B, switches, ports int) *Controller {
	b.Helper()
	c := New(sim.New())
	b.Cleanup(c.Shutdown)
	for dpid := uint64(1); dpid <= uint64(switches); dpid++ {
		conn := &Conn{ctl: c, send: func([]byte) {}, dpid: dpid,
			ports: make(map[uint32]openflow.PortDesc, ports)}
		for p := uint32(1); p <= uint32(ports); p++ {
			conn.ports[p] = openflow.PortDesc{No: p, Up: true}
		}
		c.conns[dpid] = conn
	}
	return c
}

// BenchmarkDiscoveryRound measures one full OFDP discovery round at k=4
// fat-tree scale (20 switches × 4 ports). Frames, PacketOuts and events
// are built in the controller's scratch and the sorted switch list is
// cached, so a round must run allocation-free; allocs/op is the
// regression surface for the sweep's steady-state churn.
func BenchmarkDiscoveryRound(b *testing.B) {
	c := benchDiscoveryController(b, 20, 4)
	o, ok := c.discovery.(*ofdpStrategy)
	if !ok {
		b.Fatalf("default discovery strategy is %T, want *ofdpStrategy", c.discovery)
	}
	o.runDiscovery() // warm the scratch slice and pending-probe table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.runDiscovery()
	}
}

func BenchmarkPathAndPortsLine32(b *testing.B) {
	// One full reactive-forwarding resolution: path plus every egress port
	// along it, as forward()/installPath() perform per PacketIn.
	c, _ := benchLineTopology(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, ok := c.shortestPath(1, 32)
		if !ok {
			b.Fatal("no path")
		}
		for j := 0; j+1 < len(path); j++ {
			benchEgress(b, c, path[j], path[j+1])
		}
	}
}
