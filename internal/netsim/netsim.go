// Package netsim assembles simulated SDN networks: it wires switches,
// hosts, inter-switch trunks, out-of-band side channels and the controller
// onto discrete-event kernels. It plays the role Mininet plays in the
// paper's evaluation.
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

// DefaultControlLatency models the controller-switch control channel: a
// low-millisecond software path with mild jitter.
func DefaultControlLatency() sim.Sampler {
	return sim.Normal{Mean: 2 * time.Millisecond, Std: 200 * time.Microsecond, Min: 500 * time.Microsecond}
}

// TestbedTrunkLatency reproduces the Figure 9 evaluation testbed's switch
// links: 5 ms nominal with occasional micro-bursts reaching ~12 ms, the
// jitter Figure 10 records.
func TestbedTrunkLatency() sim.Sampler {
	return sim.Burst{
		Base:  sim.Normal{Mean: 5 * time.Millisecond, Std: 300 * time.Microsecond, Min: 4 * time.Millisecond},
		Extra: sim.Uniform{Lo: 5 * time.Millisecond, Hi: 7 * time.Millisecond},
		P:     0.02,
	}
}

// Seed-derivation tags for the identity-seeded random streams of a
// network built by NewSharded, and for every network's trace entities.
// Every stream's seed is sim.MixSeed(trialSeed, tag, identity...), a pure
// function of the trial seed and the entity's identity — never of shard
// placement — which is the root of the shard-count invariance guarantee.
const (
	shardTagKernel uint64 = iota + 1
	shardTagControl
	shardTagTrunk
	shardTagHostLink
	shardTagOOB
)

// Network is an assembled simulation: one controller and the dataplane
// elements connected to it, partitioned across one or more sim.Kernels
// coordinated by a sim.ShardGroup.
//
// Placement: the controller always lives on shard 0; each switch goes to
// the shard its partition map assigns (missing entries default to 0);
// hosts follow their access switch. Links whose endpoints land on
// different shards are split (link.Link.Split): their frames cross at
// the group's window boundaries, and their minimum latency bounds the
// group lookahead.
//
// Random streams: New builds a one-shard network whose links and
// channels all draw from the kernel's shared RNG (the stream model every
// pinned figure was produced under). NewSharded gives every link and
// control channel per-direction streams seeded from the trial seed and
// the entity's identity, so its output is byte-identical across shard
// counts and between serial and parallel window execution. Each shard
// keeps a private metrics registry; MergedMetrics folds them in shard-ID
// order.
type Network struct {
	// Kernel is the control kernel (shard 0): the controller, the OOB
	// channels and, in a one-shard network, everything else run on it.
	Kernel     *sim.Kernel
	Group      *sim.ShardGroup
	Controller *controller.Controller

	seed int64
	// entityStreams selects identity-seeded per-entity RNG streams over
	// the shared kernel RNG. Decided by the constructor; read only by
	// rands.
	entityStreams bool

	kernels     []*sim.Kernel
	regs        []*obs.Registry
	part        map[uint64]int
	switches    map[uint64]*dataplane.Switch
	hosts       map[string]*dataplane.Host
	hostLoc     map[string]controller.PortRef
	hostLinks   map[string]*link.Link
	controls    map[uint64]*link.Channel
	trunks      []*link.Link
	crossTrunks int
	oobCount    uint64
	noAttach    bool

	// tracers holds one flight recorder per shard once EnableTrace runs
	// (nil before); traced remembers every link's and channel's endpoint
	// shards so late enablement can wire the right recorders.
	tracers []*trace.Recorder
	traced  []tracedEntity
}

// pipe is a link or a channel as the network wires it.
type pipe interface {
	SetRands(a, b *rand.Rand)
	SetTraceEntity(ent uint64)
	SetTraceRecorders(a, b *trace.Recorder)
	Split(group *sim.ShardGroup, shardA, shardB int, kernelB *sim.Kernel)
}

// tracedEntity is a link or channel and the shards of its two ends.
type tracedEntity struct {
	e      pipe
	sA, sB int32
}

// New creates an empty one-shard network with a controller using the
// given options and RNG seed. The kernel is seeded with seed and every
// link and channel draws from its RNG. The whole network — kernel,
// controller, every switch — records into one shared observability
// registry, reachable via Metrics(), and the kernel's executed events,
// queue depth and peak are counted there as they happen; a
// controller.WithMetrics among ctlOpts overrides the controller's
// destination but not the kernel's or the switches'.
func New(seed int64, ctlOpts ...controller.Option) *Network {
	n := newNetwork(seed, false, nil, []*sim.Kernel{sim.New(sim.WithSeed(seed))}, ctlOpts)
	obs.InstrumentKernel(n.regs[0], n.Kernel)
	return n
}

// NewSharded creates an empty network of the given shard count with
// identity-seeded per-entity RNG streams. partition maps switch DPIDs to
// shard IDs in [0, shards); DPIDs not in the map land on shard 0 with the
// controller. Shard kernels are seeded from the trial seed and their
// shard ID.
func NewSharded(seed int64, shards int, partition map[uint64]int, ctlOpts ...controller.Option) *Network {
	if shards < 1 {
		panic("netsim: sharded network needs at least one shard")
	}
	kernels := make([]*sim.Kernel, shards)
	for i := range kernels {
		kernels[i] = sim.New(sim.WithSeed(sim.MixSeed(seed, shardTagKernel, uint64(i))))
	}
	return newNetwork(seed, true, partition, kernels, ctlOpts)
}

func newNetwork(seed int64, entityStreams bool, partition map[uint64]int, kernels []*sim.Kernel, ctlOpts []controller.Option) *Network {
	regs := make([]*obs.Registry, len(kernels))
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}
	opts := append([]controller.Option{controller.WithMetrics(regs[0]), controller.WithSeed(seed)}, ctlOpts...)
	return &Network{
		Kernel:        kernels[0],
		Group:         sim.NewShardGroup(kernels...),
		Controller:    controller.New(kernels[0], opts...),
		seed:          seed,
		entityStreams: entityStreams,
		kernels:       kernels,
		regs:          regs,
		part:          partition,
		switches:      make(map[uint64]*dataplane.Switch),
		hosts:         make(map[string]*dataplane.Host),
		hostLoc:       make(map[string]controller.PortRef),
		hostLinks:     make(map[string]*link.Link),
		controls:      make(map[uint64]*link.Channel),
	}
}

// rands returns the per-direction RNG streams for the entity with the
// given tag and identity, or two nils — draw from the owning kernel's
// RNG — in the shared-stream model of New. It is the one place the
// stream model is read.
func (n *Network) rands(tag uint64, ids ...uint64) (*rand.Rand, *rand.Rand) {
	if !n.entityStreams {
		return nil, nil
	}
	a := append([]uint64{tag}, ids...)
	ra := rand.New(rand.NewSource(sim.MixSeed(n.seed, append(a, 0)...)))
	rb := rand.New(rand.NewSource(sim.MixSeed(n.seed, append(a, 1)...)))
	return ra, rb
}

// ShardOf reports the shard a switch DPID is placed on.
func (n *Network) ShardOf(dpid uint64) int {
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
func (n *Network) SetParallel(p bool) { n.Group.SetParallel(p) }

// Metrics exposes the control shard's observability registry — the
// whole network's registry when it has one shard.
func (n *Network) Metrics() *obs.Registry { return n.regs[0] }

// ShardMetrics exposes one shard's private registry.
func (n *Network) ShardMetrics(i int) *obs.Registry { return n.regs[i] }

// MergedMetrics folds the per-shard registries in shard-ID order into a
// fresh registry — the same merge discipline exp uses for per-trial
// registries — with sim_events_executed_total set to the group-wide
// executed-event total (each send schedules exactly one delivery, so the
// sum is shard-count invariant, unlike per-kernel queue-depth geometry).
// A network built by New already counts its events through the kernel
// step hook, so the counter is topped up to the total, not added to.
func (n *Network) MergedMetrics() *obs.Registry {
	out := obs.MergeAll(n.regs...)
	events := out.Counter(obs.MetricSimEvents)
	events.Add(n.Group.Executed() - events.Value())
	return out
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
func (n *Network) HealthMetrics() *obs.Registry {
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

// ShardExecuted reports the events executed by one shard (load-balance
// diagnostics; not shard-count invariant).
func (n *Network) ShardExecuted(i int) uint64 { return n.Group.ShardExecuted(i) }

// EnableTrace attaches one span flight recorder per shard (capacity
// <= 0 for trace.DefaultCapacity) to the shard kernels and registries,
// the controller, every switch and every link or channel — existing and
// future — and returns the control shard's recorder. Span identities mix
// only entity IDs and per-entity sequence numbers, so trace.Merge over
// the per-shard recorders yields a byte-identical stream across shard
// counts, mirroring MergedMetrics. Idempotent. Until called, every trace
// hook in the network is a nil check and the hot paths stay
// allocation-free.
func (n *Network) EnableTrace(capacity int) *trace.Recorder {
	if n.tracers != nil {
		return n.tracers[0]
	}
	n.tracers = make([]*trace.Recorder, len(n.kernels))
	for i, k := range n.kernels {
		n.tracers[i] = trace.NewRecorder(capacity)
		k.SetTracer(n.tracers[i])
		n.regs[i].SetTracer(n.tracers[i])
	}
	n.Controller.SetTracer(n.tracers[0])
	for dpid, sw := range n.switches {
		sw.SetTracer(n.tracers[n.ShardOf(dpid)])
	}
	for _, t := range n.traced {
		t.e.SetTraceRecorders(n.tracers[t.sA], n.tracers[t.sB])
	}
	return n.tracers[0]
}

// wire sets up a link or channel whose ends live on shards sA and sB and
// whose key is a seed-derivation tag followed by the entity's identity:
// its RNG streams and trace entity from the key, its end shards recorded
// for EnableTrace (and its recorders wired now if tracing is already on),
// and a Split when the ends are on different shards.
func (n *Network) wire(p pipe, sA, sB int, key ...uint64) {
	p.SetRands(n.rands(key[0], key[1:]...))
	p.SetTraceEntity(uint64(sim.MixSeed(0, key...)))
	n.traced = append(n.traced, tracedEntity{e: p, sA: int32(sA), sB: int32(sB)})
	if n.tracers != nil {
		p.SetTraceRecorders(n.tracers[sA], n.tracers[sB])
	}
	if sA != sB {
		p.Split(n.Group, sA, sB, n.kernels[sB])
	}
}

// ShardTracer reports shard i's flight recorder, or nil while tracing
// is disabled.
func (n *Network) ShardTracer(i int) *trace.Recorder {
	if n.tracers == nil {
		return nil
	}
	return n.tracers[i]
}

// MergedSpans gathers every shard's retained spans in the canonical
// (Start, End, ID) order — byte-identical across shard counts when
// rendered with the trace writers.
func (n *Network) MergedSpans() []trace.Span {
	if n.tracers == nil {
		return nil
	}
	return trace.Merge(n.tracers...)
}

// AddSwitch creates a switch on its partition shard and connects it to
// the shard-0 controller over a control channel with the given latency
// (nil for the default), splitting the channel across shards when
// needed.
func (n *Network) AddSwitch(dpid uint64, controlLatency sim.Sampler) *dataplane.Switch {
	if controlLatency == nil {
		controlLatency = DefaultControlLatency()
	}
	s := n.ShardOf(dpid)
	sw := dataplane.NewSwitch(n.kernels[s], dpid, dataplane.WithMetrics(n.regs[s]))
	ch := link.NewChannel(n.kernels[s], controlLatency)
	n.wire(ch, s, 0, shardTagControl, dpid)
	if n.tracers != nil {
		sw.SetTracer(n.tracers[s])
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
func (n *Network) SetAutoAttach(on bool) { n.noAttach = !on }

// ControlKernel reports the kernel the controller and its replicas run
// on (shard 0).
func (n *Network) ControlKernel() *sim.Kernel { return n.Kernel }

// SwitchIDs lists the datapath ids of every switch in the network in
// ascending order (attached to a controller or not).
func (n *Network) SwitchIDs() []uint64 {
	out := make([]uint64, 0, len(n.switches))
	for dpid := range n.switches {
		out = append(out, dpid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ControlChannel returns the control channel wired to a switch, or nil
// for an unknown switch. End A faces the switch; end B faces whichever
// controller replica currently masters it. Fault injectors use it to add
// loss or latency to the control path.
func (n *Network) ControlChannel(dpid uint64) *link.Channel { return n.controls[dpid] }

// DisconnectSwitch severs a switch's control channel: both channel ends
// stop delivering (messages already in flight are dropped on arrival) and
// the controller tears down its side of the connection, failing every
// pending probe bound to the switch. The dataplane keeps forwarding on
// its installed flows, as a real switch does in fail-standalone mode.
// Reports false for an unknown switch.
func (n *Network) DisconnectSwitch(dpid uint64) bool {
	ch, ok := n.controls[dpid]
	if !ok {
		return false
	}
	ch.OnReceive(link.EndA, nil)
	ch.OnReceive(link.EndB, nil)
	n.Controller.Disconnect(dpid)
	return true
}

// ReconnectSwitch re-establishes a previously severed control channel:
// the switch's control handler is re-attached and a fresh controller
// connection runs the Hello/Features handshake from scratch, after which
// the controller re-probes the switch's ports. Reports false for an
// unknown switch.
func (n *Network) ReconnectSwitch(dpid uint64) bool {
	ch, ok := n.controls[dpid]
	if !ok {
		return false
	}
	sw := n.switches[dpid]
	ch.OnReceive(link.EndA, sw.HandleControl)
	conn := n.Controller.Connect(func(b []byte) { ch.Send(link.EndB, b) })
	ch.OnReceive(link.EndB, conn.Handle)
	return true
}

// Switch returns a switch by datapath id, or nil.
func (n *Network) Switch(dpid uint64) *dataplane.Switch { return n.switches[dpid] }

// AddHost attaches a new host to a switch port over a link with the given
// latency (nil for zero), on the same shard as its access switch.
func (n *Network) AddHost(name string, mac, ip string, dpid uint64, port uint32, latency sim.Sampler, opts ...dataplane.HostOption) *dataplane.Host {
	sw, ok := n.switches[dpid]
	if !ok {
		panic(fmt.Sprintf("netsim: no switch 0x%x", dpid))
	}
	s := n.ShardOf(dpid)
	l := link.NewLink(n.kernels[s], latency)
	n.wire(l, s, s, shardTagHostLink, dpid, uint64(port))
	sw.AddPort(port, l, link.EndA, nil)
	h := dataplane.NewHost(n.kernels[s], name, packet.MustMAC(mac), packet.MustIPv4(ip), l, link.EndB, opts...)
	n.hosts[name] = h
	n.hostLoc[name] = controller.PortRef{DPID: dpid, Port: port}
	n.hostLinks[name] = l
	return h
}

// Host returns a host by name, or nil.
func (n *Network) Host(name string) *dataplane.Host { return n.hosts[name] }

// HostLocation reports the switch port a host was attached to.
func (n *Network) HostLocation(name string) controller.PortRef { return n.hostLoc[name] }

// HostLink returns a host's access link, or nil. The switch holds EndA
// and the host EndB.
func (n *Network) HostLink(name string) *link.Link { return n.hostLinks[name] }

// MoveHost detaches a host's name binding and re-attaches a new host
// object at a different switch port, modeling a migration's endpoint. The
// old host object should be brought down by the caller beforehand.
func (n *Network) MoveHost(name string, mac, ip string, dpid uint64, port uint32, latency sim.Sampler, opts ...dataplane.HostOption) *dataplane.Host {
	return n.AddHost(name, mac, ip, dpid, port, latency, opts...)
}

// AddTrunk links two switch ports with the given latency (nil for the
// testbed default), splitting the link across shards when the switches
// are partitioned apart, and returns the inter-switch link.
func (n *Network) AddTrunk(dpidA uint64, portA uint32, dpidB uint64, portB uint32, latency sim.Sampler) *link.Link {
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
	n.wire(l, sA, sB, shardTagTrunk, dpidA, uint64(portA), dpidB, uint64(portB))
	if sA != sB {
		n.crossTrunks++
	}
	swA.AddPort(portA, l, link.EndA, nil)
	swB.AddPort(portB, l, link.EndB, nil)
	n.trunks = append(n.trunks, l)
	n.anchorTrunk(l, dpidA, portA, dpidB, portB)
	return l
}

// anchorTrunk wires a trunk's physical fault signal into the controller
// when the sOFTDP strategy is active: the trunk registers as a BFD path
// anchor, and deliverability transitions (carrier drops, total loss)
// feed Controller.NotifyPathState — the in-simulation stand-in for the
// per-link BFD sessions sOFTDP runs in place of sweep timeouts. Under
// OFDP nothing is registered, so the default protocol's behavior (and
// byte output) is untouched. The fault callback runs inside
// SetCarrier/SetLossRate; on split trunks SetCarrier already panics and
// SetLossRate is legal only between runs, so the shard-0 controller is
// never entered mid-window from another shard's goroutine.
func (n *Network) anchorTrunk(l *link.Link, dpidA uint64, portA uint32, dpidB uint64, portB uint32) {
	if n.noAttach || n.Controller.Profile().Discovery != controller.DiscoverySOFTDP {
		return
	}
	a := controller.PortRef{DPID: dpidA, Port: portA}
	b := controller.PortRef{DPID: dpidB, Port: portB}
	n.Controller.RegisterPathAnchor(a, b)
	ctl := n.Controller
	l.OnFault(func(alive bool) { ctl.NotifyPathState(a, b, alive) })
}

// Trunks lists every inter-switch link in creation order.
func (n *Network) Trunks() []*link.Link {
	out := make([]*link.Link, len(n.trunks))
	copy(out, n.trunks)
	return out
}

// CrossShardTrunks counts trunks whose endpoints live on different
// shards — the traffic that pays the cross-shard mailbox path.
func (n *Network) CrossShardTrunks() int { return n.crossTrunks }

// AddOOBChannel creates an out-of-band side channel (e.g. the attackers'
// 802.11 link in Figure 1) that bypasses the SDN entirely. It lives on
// the control shard and, under NewSharded, draws from identity-seeded
// streams like every other entity.
func (n *Network) AddOOBChannel(latency sim.Sampler) *link.Channel {
	ch := link.NewChannel(n.Kernel, latency)
	n.oobCount++
	ch.SetRands(n.rands(shardTagOOB, n.oobCount))
	return ch
}

// Run advances the whole simulation by d, exchanging cross-shard traffic
// at window boundaries. With one shard and no split link it is one
// window: exactly Kernel.RunFor.
func (n *Network) Run(d time.Duration) error { return n.Group.RunFor(d) }

// Shutdown stops controller and switch background tickers so the kernels
// can drain.
func (n *Network) Shutdown() {
	n.Controller.Shutdown()
	for _, sw := range n.switches {
		sw.Shutdown()
	}
}
