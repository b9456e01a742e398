package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// Seed-derivation tags for the per-entity random streams of a sharded
// network. Every stream's seed is sim.MixSeed(trialSeed, tag, identity...),
// a pure function of the trial seed and the entity's identity — never of
// shard placement — which is the root of the shard-count invariance
// guarantee.
const (
	shardTagKernel uint64 = iota + 1
	shardTagControl
	shardTagTrunk
	shardTagHostLink
	shardTagOOB
)

// ShardedNetwork is a simulated SDN network partitioned across several
// sim.Kernels coordinated by a sim.ShardGroup. It implements Builder, so
// topology generators (BuildFatTreeOn) assemble onto it through the exact
// same call sequence as onto a serial Network.
//
// Placement: the controller always lives on shard 0; each switch goes to
// the shard its partition map assigns (missing entries default to 0);
// hosts follow their access switch. Links whose endpoints land on
// different shards are split (link.Link.Split): their frames cross at
// the group's window boundaries, and their minimum latency bounds the
// group lookahead.
//
// Determinism: every link and control channel gets per-direction RNG
// streams seeded from the trial seed and the entity's identity, each
// shard keeps a private metrics registry, and MergedMetrics folds the
// registries in shard-ID order. Snapshot output is byte-identical across
// shard counts and between serial and parallel window execution.
type ShardedNetwork struct {
	Group      *sim.ShardGroup
	Controller *controller.Controller

	seed        int64
	kernels     []*sim.Kernel
	regs        []*obs.Registry
	part        map[uint64]int
	switches    map[uint64]*dataplane.Switch
	hosts       map[string]*dataplane.Host
	hostLoc     map[string]controller.PortRef
	controls    map[uint64]*link.Channel
	trunks      []*link.Link
	crossTrunks int
	oobCount    uint64
	noAttach    bool

	// tracers holds one flight recorder per shard once EnableTrace runs
	// (nil before); tracedLinks/tracedChans remember each entity's
	// endpoint shards so late enablement can wire the right recorders.
	tracers     []*trace.Recorder
	tracedLinks []tracedLink
	tracedChans []tracedChan
}

type tracedLink struct {
	l      *link.Link
	sA, sB int
}

type tracedChan struct {
	c      *link.Channel
	sA, sB int
}

// NewSharded creates an empty sharded network of the given shard count.
// partition maps switch DPIDs to shard IDs in [0, shards); DPIDs not in
// the map land on shard 0 with the controller. Shard kernels are seeded
// from the trial seed and their shard ID.
func NewSharded(seed int64, shards int, partition map[uint64]int, ctlOpts ...controller.Option) *ShardedNetwork {
	if shards < 1 {
		panic("netsim: sharded network needs at least one shard")
	}
	kernels := make([]*sim.Kernel, shards)
	regs := make([]*obs.Registry, shards)
	for i := range kernels {
		kernels[i] = sim.New(sim.WithSeed(sim.MixSeed(seed, shardTagKernel, uint64(i))))
		regs[i] = obs.NewRegistry()
	}
	opts := append([]controller.Option{controller.WithMetrics(regs[0]), controller.WithSeed(seed)}, ctlOpts...)
	return &ShardedNetwork{
		Group:      sim.NewShardGroup(kernels...),
		Controller: controller.New(kernels[0], opts...),
		seed:       seed,
		kernels:    kernels,
		regs:       regs,
		part:       partition,
		switches:   make(map[uint64]*dataplane.Switch),
		hosts:      make(map[string]*dataplane.Host),
		hostLoc:    make(map[string]controller.PortRef),
		controls:   make(map[uint64]*link.Channel),
	}
}

// Shards reports the shard count.
func (n *ShardedNetwork) Shards() int { return len(n.kernels) }

// ShardOf reports the shard a switch DPID is placed on.
func (n *ShardedNetwork) ShardOf(dpid uint64) int {
	if s, ok := n.part[dpid]; ok {
		if s < 0 || s >= len(n.kernels) {
			panic(fmt.Sprintf("netsim: dpid 0x%x partitioned to shard %d of %d", dpid, s, len(n.kernels)))
		}
		return s
	}
	return 0
}

// SetParallel selects parallel (one goroutine per shard) or serial window
// execution; the simulation is identical either way.
func (n *ShardedNetwork) SetParallel(p bool) { n.Group.SetParallel(p) }

func (n *ShardedNetwork) rands(tag uint64, ids ...uint64) (*rand.Rand, *rand.Rand) {
	a := append([]uint64{tag}, ids...)
	ra := rand.New(rand.NewSource(sim.MixSeed(n.seed, append(a, 0)...)))
	rb := rand.New(rand.NewSource(sim.MixSeed(n.seed, append(a, 1)...)))
	return ra, rb
}

// AddSwitch creates a switch on its partition shard and connects it to
// the shard-0 controller, splitting the control channel across shards
// when needed. It implements Builder.
func (n *ShardedNetwork) AddSwitch(dpid uint64, controlLatency sim.Sampler) *dataplane.Switch {
	if controlLatency == nil {
		controlLatency = DefaultControlLatency()
	}
	s := n.ShardOf(dpid)
	sw := dataplane.NewSwitch(n.kernels[s], dpid, dataplane.WithMetrics(n.regs[s]))
	ch := link.NewChannel(n.kernels[s], controlLatency)
	ra, rb := n.rands(shardTagControl, dpid)
	ch.SetRands(ra, rb)
	ch.SetTraceEntity(uint64(sim.MixSeed(0, shardTagControl, dpid)))
	n.tracedChans = append(n.tracedChans, tracedChan{c: ch, sA: s, sB: 0})
	if n.tracers != nil {
		sw.SetTracer(n.tracers[s])
		ch.SetTraceRecorders(n.tracers[s], n.tracers[0])
	}
	if s != 0 {
		ch.Split(n.Group, s, 0, n.kernels[0])
	}
	sw.SetControlSender(func(b []byte) { ch.Send(link.EndA, b) })
	ch.OnReceive(link.EndA, sw.HandleControl)
	if !n.noAttach {
		conn := n.Controller.Connect(func(b []byte) { ch.Send(link.EndB, b) })
		ch.OnReceive(link.EndB, conn.Handle)
	}
	n.switches[dpid] = sw
	n.controls[dpid] = ch
	return sw
}

// SetAutoAttach controls whether AddSwitch wires each new switch's
// control channel to the built-in shard-0 controller (the default). A
// cluster harness disables it and performs every attach/detach itself,
// so mastership — not construction order — decides which replica owns a
// switch.
func (n *ShardedNetwork) SetAutoAttach(on bool) { n.noAttach = !on }

// SwitchIDs lists the datapath ids of every switch in the network in
// ascending order (attached to a controller or not).
func (n *ShardedNetwork) SwitchIDs() []uint64 {
	out := make([]uint64, 0, len(n.switches))
	for dpid := range n.switches {
		out = append(out, dpid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ControlChannel returns the control channel wired to a switch, or nil
// for an unknown switch. End A faces the switch; end B faces whichever
// controller replica currently masters it.
func (n *ShardedNetwork) ControlChannel(dpid uint64) *link.Channel { return n.controls[dpid] }

// ControlKernel reports the kernel controller replicas run on (shard 0).
func (n *ShardedNetwork) ControlKernel() *sim.Kernel { return n.kernels[0] }

// AddOOBChannel creates an out-of-band side channel on the control shard
// with identity-seeded RNG streams, so its latency draws are invariant
// to shard count like every other entity's.
func (n *ShardedNetwork) AddOOBChannel(latency sim.Sampler) *link.Channel {
	ch := link.NewChannel(n.kernels[0], latency)
	n.oobCount++
	ch.SetRands(n.rands(shardTagOOB, n.oobCount))
	return ch
}

// AddHost attaches a host on the same shard as its access switch. It
// implements Builder.
func (n *ShardedNetwork) AddHost(name string, mac, ip string, dpid uint64, port uint32, latency sim.Sampler, opts ...dataplane.HostOption) *dataplane.Host {
	sw, ok := n.switches[dpid]
	if !ok {
		panic(fmt.Sprintf("netsim: no switch 0x%x", dpid))
	}
	s := n.ShardOf(dpid)
	l := link.NewLink(n.kernels[s], latency)
	ra, rb := n.rands(shardTagHostLink, dpid, uint64(port))
	l.SetRands(ra, rb)
	l.SetTraceEntity(uint64(sim.MixSeed(0, shardTagHostLink, dpid, uint64(port))))
	n.tracedLinks = append(n.tracedLinks, tracedLink{l: l, sA: s, sB: s})
	if n.tracers != nil {
		l.SetTraceRecorders(n.tracers[s], n.tracers[s])
	}
	sw.AddPort(port, l, link.EndA, nil)
	h := dataplane.NewHost(n.kernels[s], name, packet.MustMAC(mac), packet.MustIPv4(ip), l, link.EndB, opts...)
	n.hosts[name] = h
	n.hostLoc[name] = controller.PortRef{DPID: dpid, Port: port}
	return h
}

// AddTrunk links two switch ports, splitting the link across shards when
// the switches are partitioned apart. It implements Builder.
func (n *ShardedNetwork) AddTrunk(dpidA uint64, portA uint32, dpidB uint64, portB uint32, latency sim.Sampler) *link.Link {
	swA, okA := n.switches[dpidA]
	swB, okB := n.switches[dpidB]
	if !okA || !okB {
		panic(fmt.Sprintf("netsim: trunk between unknown switches 0x%x 0x%x", dpidA, dpidB))
	}
	if latency == nil {
		latency = TestbedTrunkLatency()
	}
	sA, sB := n.ShardOf(dpidA), n.ShardOf(dpidB)
	l := link.NewLink(n.kernels[sA], latency)
	ra, rb := n.rands(shardTagTrunk, dpidA, uint64(portA), dpidB, uint64(portB))
	l.SetRands(ra, rb)
	l.SetTraceEntity(uint64(sim.MixSeed(0, shardTagTrunk, dpidA, uint64(portA), dpidB, uint64(portB))))
	n.tracedLinks = append(n.tracedLinks, tracedLink{l: l, sA: sA, sB: sB})
	if n.tracers != nil {
		l.SetTraceRecorders(n.tracers[sA], n.tracers[sB])
	}
	if sA != sB {
		l.Split(n.Group, sA, sB, n.kernels[sB])
		n.crossTrunks++
	}
	swA.AddPort(portA, l, link.EndA, nil)
	swB.AddPort(portB, l, link.EndB, nil)
	n.trunks = append(n.trunks, l)
	// BFD path anchor for sOFTDP, exactly as in the serial Network. The
	// fault callback runs inside SetCarrier/SetLossRate; on split trunks
	// SetCarrier already panics and SetLossRate is legal only between
	// runs, so the shard-0 controller is never entered mid-window from
	// another shard's goroutine.
	if !n.noAttach && n.Controller.Profile().Discovery == controller.DiscoverySOFTDP {
		a := controller.PortRef{DPID: dpidA, Port: portA}
		b := controller.PortRef{DPID: dpidB, Port: portB}
		n.Controller.RegisterPathAnchor(a, b)
		ctl := n.Controller
		l.OnFault(func(alive bool) { ctl.NotifyPathState(a, b, alive) })
	}
	return l
}

// Switch returns a switch by datapath id, or nil.
func (n *ShardedNetwork) Switch(dpid uint64) *dataplane.Switch { return n.switches[dpid] }

// Host returns a host by name, or nil.
func (n *ShardedNetwork) Host(name string) *dataplane.Host { return n.hosts[name] }

// HostLocation reports the switch port a host was attached to.
func (n *ShardedNetwork) HostLocation(name string) controller.PortRef { return n.hostLoc[name] }

// Trunks lists every inter-switch link in creation order.
func (n *ShardedNetwork) Trunks() []*link.Link {
	out := make([]*link.Link, len(n.trunks))
	copy(out, n.trunks)
	return out
}

// CrossShardTrunks counts trunks whose endpoints live on different
// shards — the traffic that pays the cross-shard mailbox path.
func (n *ShardedNetwork) CrossShardTrunks() int { return n.crossTrunks }

// Run advances the whole simulation by d, exchanging cross-shard traffic
// at window boundaries.
func (n *ShardedNetwork) Run(d time.Duration) error { return n.Group.RunFor(d) }

// ShardExecuted reports the events executed by one shard (load-balance
// diagnostics; not shard-count invariant).
func (n *ShardedNetwork) ShardExecuted(i int) uint64 { return n.Group.ShardExecuted(i) }

// MergedMetrics folds the per-shard registries in shard-ID order into a
// fresh registry — the same merge discipline exp uses for per-trial
// registries — and adds the group-wide executed-event total (each send
// schedules exactly one delivery, so the sum is shard-count invariant,
// unlike per-kernel queue-depth geometry, which is deliberately not
// recorded here).
func (n *ShardedNetwork) MergedMetrics() *obs.Registry {
	out := obs.MergeAll(n.regs...)
	out.Counter("sim_events_executed_total").Add(n.Group.Executed())
	return out
}

// ShardMetrics exposes one shard's private registry.
func (n *ShardedNetwork) ShardMetrics(i int) *obs.Registry { return n.regs[i] }

// EnableTrace attaches one span flight recorder per shard (capacity
// <= 0 for trace.DefaultCapacity) to the shard kernels, the shard-0
// controller, every switch and every link or channel — existing and
// future. Span identities mix only entity IDs and per-entity sequence
// numbers, so trace.Merge over the per-shard recorders yields a
// byte-identical stream across shard counts, mirroring MergedMetrics.
// Idempotent.
func (n *ShardedNetwork) EnableTrace(capacity int) {
	if n.tracers != nil {
		return
	}
	n.tracers = make([]*trace.Recorder, len(n.kernels))
	for i, k := range n.kernels {
		n.tracers[i] = trace.NewRecorder(capacity)
		k.SetTracer(n.tracers[i])
	}
	n.Controller.SetTracer(n.tracers[0])
	for dpid, sw := range n.switches {
		sw.SetTracer(n.tracers[n.ShardOf(dpid)])
	}
	for _, tc := range n.tracedChans {
		tc.c.SetTraceRecorders(n.tracers[tc.sA], n.tracers[tc.sB])
	}
	for _, tl := range n.tracedLinks {
		tl.l.SetTraceRecorders(n.tracers[tl.sA], n.tracers[tl.sB])
	}
}

// ShardTracer reports shard i's flight recorder, or nil while tracing
// is disabled.
func (n *ShardedNetwork) ShardTracer(i int) *trace.Recorder {
	if n.tracers == nil {
		return nil
	}
	return n.tracers[i]
}

// MergedSpans gathers every shard's retained spans in the canonical
// (Start, End, ID) order — byte-identical across shard counts when
// rendered with the trace writers.
func (n *ShardedNetwork) MergedSpans() []trace.Span {
	if n.tracers == nil {
		return nil
	}
	return trace.Merge(n.tracers...)
}

// HealthMetrics renders the per-shard execution-geometry gauges into a
// fresh registry in shard-ID order: event queue depth and peak, sampled
// at window ends (windows open only where some shard has work, so there
// are as many samples as windows, not one per lookahead of virtual
// time); barrier stall, summed over parallel windows only (serial runs
// report zero); cross-shard mailbox peak; and per-shard executed events.
// These gauges describe HOW the run was partitioned — they vary with
// shard count and the stall is wall-clock — so they live in this
// separate health registry, never in the deterministic MergedMetrics
// snapshot.
func (n *ShardedNetwork) HealthMetrics() *obs.Registry {
	reg := obs.NewRegistry()
	for i := range n.kernels {
		h := n.Group.Health(i)
		labels := fmt.Sprintf("{shard=\"%d\"}", i)
		reg.Gauge("shard_event_queue_depth" + labels).Set(int64(h.QueueDepth))
		reg.Gauge("shard_event_queue_peak" + labels).Set(int64(h.QueuePeak))
		reg.Gauge("shard_epoch_stall_wall_ns_total" + labels).Set(h.EpochStallNs)
		reg.Gauge("shard_mailbox_backlog_peak" + labels).Set(int64(h.MailboxPeak))
		reg.Gauge("shard_events_executed" + labels).Set(int64(n.Group.ShardExecuted(i)))
	}
	return reg
}

// Shutdown stops controller and switch background tickers so the shard
// kernels can drain.
func (n *ShardedNetwork) Shutdown() {
	n.Controller.Shutdown()
	for _, sw := range n.switches {
		sw.Shutdown()
	}
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
