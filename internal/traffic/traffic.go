// Package traffic generates flow-level background load for the
// simulated network: each Generator turns one host into a traffic
// source that opens flows at a configurable rate, draws each flow's
// size from a heavy-tailed sampler, and emits the flow's packets in
// batched kernel events so the kernel sustains millions of events per
// second without per-packet closures or payload churn.
//
// Determinism and shard invariance: every Generator owns a private RNG
// seeded from identity at construction — it never touches the kernel's
// shard RNG — and all of its events run on the owning host's kernel, so
// a fat-tree sliced across any shard count replays byte-identically.
package traffic

import (
	"math/rand"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
	"sdntamper/internal/stats"
)

// Profile describes one host's offered load.
type Profile struct {
	// FlowsPerSec is the Poisson flow-arrival rate (exponential gaps).
	FlowsPerSec float64
	// FlowSize draws each flow's size in bytes.
	FlowSize stats.SizeSampler
	// PayloadBytes is the UDP payload per packet; a flow of S bytes
	// becomes ceil(S/PayloadBytes) packets. Default 1000.
	PayloadBytes int
	// BatchPackets is how many packets one pump event emits before
	// yielding to the kernel. Default 8.
	BatchPackets int
	// BatchGap is the virtual delay between pump events. Default 1 ms,
	// so a default profile sustains 8 000 packets/s of drain per host.
	BatchGap time.Duration
	// SrcPortBase seeds the rotating UDP source port. Default 20000.
	SrcPortBase uint16
}

func (p Profile) withDefaults() Profile {
	if p.PayloadBytes <= 0 {
		p.PayloadBytes = 1000
	}
	if p.BatchPackets <= 0 {
		p.BatchPackets = 8
	}
	if p.BatchGap <= 0 {
		p.BatchGap = time.Millisecond
	}
	if p.SrcPortBase == 0 {
		p.SrcPortBase = 20000
	}
	if p.FlowSize == nil {
		p.FlowSize = stats.ConstSize(int64(p.PayloadBytes))
	}
	return p
}

// Counters is a snapshot of what a generator has offered so far.
type Counters struct {
	Flows   uint64
	Packets uint64
	Bytes   uint64
}

// Generator drives one host toward one destination under a Profile.
type Generator struct {
	host    *dataplane.Host
	kernel  *sim.Kernel
	dstMAC  packet.MAC
	dstIP   packet.IPv4Addr
	dstPort uint16
	prof    Profile
	rng     *rand.Rand

	payload []byte // pooled: the host copies it into the frame it sends
	srcPort uint16

	started bool
	arrival sim.Event
	pumping bool
	pump    sim.Event
	pending int64 // packets awaiting transmission across all open flows

	c Counters
}

// moduleTag namespaces generator RNG seeds within sim.MixSeed.
const moduleTag = 0x7472666663 // "trffc"

// NewGenerator builds a generator for host→(dstMAC, dstIP):dstPort.
// index must be unique per generator under one seed (e.g. the host's
// position in a sorted host list); it fixes the private RNG stream.
func NewGenerator(host *dataplane.Host, dstMAC packet.MAC, dstIP packet.IPv4Addr, dstPort uint16, prof Profile, seed int64, index int) *Generator {
	prof = prof.withDefaults()
	return &Generator{
		host:    host,
		kernel:  host.Kernel(),
		dstMAC:  dstMAC,
		dstIP:   dstIP,
		dstPort: dstPort,
		prof:    prof,
		rng:     rand.New(rand.NewSource(sim.MixSeed(seed, moduleTag, uint64(index)))),
		payload: make([]byte, prof.PayloadBytes),
		srcPort: prof.SrcPortBase,
	}
}

// Counters reports offered totals so far.
func (g *Generator) Counters() Counters { return g.c }

// Pending reports packets admitted but not yet emitted.
func (g *Generator) Pending() int64 { return g.pending }

// Start begins Poisson flow arrivals. Idempotent.
func (g *Generator) Start() {
	if g.started || g.prof.FlowsPerSec <= 0 {
		return
	}
	g.started = true
	g.scheduleArrival()
}

// Stop cancels future arrivals and pumps; packets already admitted are
// discarded.
func (g *Generator) Stop() {
	if g.started {
		g.started = false
		g.arrival.Cancel()
	}
	if g.pumping {
		g.pumping = false
		g.pump.Cancel()
	}
	g.pending = 0
}

// Burst opens n flows at once — the legitimate-burst control for
// false-positive testing. It works whether or not the generator is
// started.
func (g *Generator) Burst(n int) {
	for i := 0; i < n; i++ {
		g.admitFlow()
	}
	g.ensurePump()
}

func (g *Generator) scheduleArrival() {
	gap := time.Duration(g.rng.ExpFloat64() / g.prof.FlowsPerSec * float64(time.Second))
	g.arrival = g.kernel.ScheduleArg(gap, arrivalEvent, g)
}

// arrivalEvent and pumpEvent are package-level so ScheduleArg never
// allocates a closure per flow or per batch.
func arrivalEvent(arg any) {
	g := arg.(*Generator)
	if !g.started {
		return
	}
	g.admitFlow()
	g.ensurePump()
	g.scheduleArrival()
}

func (g *Generator) admitFlow() {
	size := g.prof.FlowSize.SampleBytes(g.rng)
	pkts := (size + int64(g.prof.PayloadBytes) - 1) / int64(g.prof.PayloadBytes)
	if pkts < 1 {
		pkts = 1
	}
	g.pending += pkts
	g.c.Flows++
}

func (g *Generator) ensurePump() {
	if g.pumping || g.pending == 0 {
		return
	}
	g.pumping = true
	g.pump = g.kernel.ScheduleArg(0, pumpEvent, g)
}

func pumpEvent(arg any) {
	g := arg.(*Generator)
	if !g.pumping {
		return
	}
	n := int64(g.prof.BatchPackets)
	if n > g.pending {
		n = g.pending
	}
	for i := int64(0); i < n; i++ {
		// Rotate the source port so consecutive flows are distinguishable
		// in captures; forwarding state is per-MAC so this costs nothing.
		g.srcPort = g.prof.SrcPortBase + (g.srcPort-g.prof.SrcPortBase+1)%1024
		g.host.SendUDP(g.dstMAC, g.dstIP, g.srcPort, g.dstPort, g.payload)
		g.c.Packets++
		g.c.Bytes += uint64(len(g.payload))
	}
	g.pending -= n
	if g.pending > 0 {
		g.pump = g.kernel.ScheduleArg(g.prof.BatchGap, pumpEvent, g)
		return
	}
	g.pumping = false
}
