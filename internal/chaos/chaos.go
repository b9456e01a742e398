// Package chaos is the deterministic fault-injection layer: it schedules
// scripted and randomized fault scenarios — link flap storms, loss
// episodes, latency spikes, and switch control-channel disconnects — on a
// netsim.Network, and measures how the discovery pipeline and the
// TopoGuard+ defenses behave under infrastructure failures that are NOT
// attacks. Every fault draws its randomness from an injector-private
// seeded RNG and runs entirely on the simulation kernel, so a (topology,
// seed) pair replays the same fault timeline event for event.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"sdntamper/internal/link"
	"sdntamper/internal/netsim"
	"sdntamper/internal/obs"
	"sdntamper/internal/sim"
)

// Class names a fault family. Experiment rows and metrics are keyed by it.
type Class string

// The built-in fault classes.
const (
	// ClassFlapStorm drives a trunk's carrier down and up repeatedly.
	ClassFlapStorm Class = "flap-storm"
	// ClassLossEpisode raises the drop rate on trunks and control
	// channels for a bounded episode.
	ClassLossEpisode Class = "loss-episode"
	// ClassLatencySpike temporarily inflates path delay samplers.
	ClassLatencySpike Class = "latency-spike"
	// ClassDisconnect severs a switch's control channel, optionally
	// reconnecting it later.
	ClassDisconnect Class = "disconnect"
	// ClassControllerCrash kills a controller replica in a clustered
	// control plane, optionally reviving it later. Requires a bound
	// ReplicaSet (BindCluster); PlanFor returns nil without one.
	ClassControllerCrash Class = "controller-crash"
)

// Classes lists every built-in fault class in canonical order. New
// classes append at the end: per-trial seeds derive from a class's
// index here, so reordering would silently reroll every existing
// trial's fault plan.
func Classes() []Class {
	return []Class{ClassFlapStorm, ClassLossEpisode, ClassLatencySpike, ClassDisconnect, ClassControllerCrash}
}

// ParseClasses resolves a comma-free list of class names, rejecting
// unknown ones.
func ParseClasses(names []string) ([]Class, error) {
	known := map[Class]bool{}
	for _, c := range Classes() {
		known[c] = true
	}
	out := make([]Class, 0, len(names))
	for _, n := range names {
		c := Class(n)
		if !known[c] {
			return nil, fmt.Errorf("chaos: unknown fault class %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// LossyPath is any path with an injectable drop rate. Both *link.Link
// (trunks) and *link.Channel (control channels) satisfy it.
type LossyPath interface {
	LossRate() float64
	SetLossRate(p float64)
}

// LatencyPath is any path whose delay sampler can be swapped, so a spike
// can wrap the current sampler and restore it afterwards.
type LatencyPath interface {
	Latency() sim.Sampler
	SetLatency(s sim.Sampler)
}

var (
	_ LossyPath   = (*link.Link)(nil)
	_ LossyPath   = (*link.Channel)(nil)
	_ LatencyPath = (*link.Link)(nil)
	_ LatencyPath = (*link.Channel)(nil)
)

// Fault is one schedulable failure. Implementations arm kernel events in
// apply; Duration bounds the active span so callers know when the network
// is nominally fault-free again.
type Fault interface {
	Class() Class
	// Duration reports how long the fault stays active after it starts.
	Duration() time.Duration
	apply(inj *Injector)
}

// FlapStorm repeatedly drops and restores the carrier on one end of a
// dataplane link: Flaps cycles of Down time down followed by Up time up.
// The paper's Port-Down eviction path and the CMM's propagation window
// both key off exactly this signal.
type FlapStorm struct {
	Target *link.Link
	End    link.End
	Flaps  int
	Down   time.Duration
	Up     time.Duration
}

// Class implements Fault.
func (f *FlapStorm) Class() Class { return ClassFlapStorm }

// Duration implements Fault.
func (f *FlapStorm) Duration() time.Duration {
	return time.Duration(f.Flaps) * (f.Down + f.Up)
}

func (f *FlapStorm) apply(inj *Injector) {
	period := f.Down + f.Up
	for i := 0; i < f.Flaps; i++ {
		at := time.Duration(i) * period
		inj.kernel.Schedule(at, func() {
			f.Target.SetCarrier(f.End, false)
			inj.m.flaps.Inc()
		})
		inj.kernel.Schedule(at+f.Down, func() {
			f.Target.SetCarrier(f.End, true)
		})
	}
}

// LossEpisode raises the drop probability on a set of paths to Rate for
// Duration, then restores each path's previous rate.
type LossEpisode struct {
	Targets []LossyPath
	Rate    float64
	Length  time.Duration
}

// Class implements Fault.
func (f *LossEpisode) Class() Class { return ClassLossEpisode }

// Duration implements Fault.
func (f *LossEpisode) Duration() time.Duration { return f.Length }

func (f *LossEpisode) apply(inj *Injector) {
	prev := make([]float64, len(f.Targets))
	inj.kernel.Schedule(0, func() {
		for i, t := range f.Targets {
			prev[i] = t.LossRate()
			t.SetLossRate(f.Rate)
		}
	})
	inj.kernel.Schedule(f.Length, func() {
		for i, t := range f.Targets {
			t.SetLossRate(prev[i])
		}
	})
}

// LatencySpike wraps each target's delay sampler with a scaled/offset
// variant for Length, then restores the original. Using sim.Scaled keeps
// the underlying sampler's RNG draw cadence, so the spike perturbs
// delays without desynchronizing the random stream.
type LatencySpike struct {
	Targets []LatencyPath
	Factor  float64
	Offset  time.Duration
	Length  time.Duration
}

// Class implements Fault.
func (f *LatencySpike) Class() Class { return ClassLatencySpike }

// Duration implements Fault.
func (f *LatencySpike) Duration() time.Duration { return f.Length }

func (f *LatencySpike) apply(inj *Injector) {
	prev := make([]sim.Sampler, len(f.Targets))
	inj.kernel.Schedule(0, func() {
		for i, t := range f.Targets {
			prev[i] = t.Latency()
			t.SetLatency(sim.Scaled{Base: prev[i], Factor: f.Factor, Offset: f.Offset})
		}
	})
	inj.kernel.Schedule(f.Length, func() {
		for i, t := range f.Targets {
			t.SetLatency(prev[i])
		}
	})
}

// Disconnect severs a switch's control channel; with Down > 0 the switch
// reconnects (fresh handshake) after that long, otherwise it stays dark.
type Disconnect struct {
	DPID uint64
	Down time.Duration
}

// Class implements Fault.
func (f *Disconnect) Class() Class { return ClassDisconnect }

// Duration implements Fault.
func (f *Disconnect) Duration() time.Duration { return f.Down }

func (f *Disconnect) apply(inj *Injector) {
	inj.kernel.Schedule(0, func() { inj.net.DisconnectSwitch(f.DPID) })
	if f.Down > 0 {
		inj.kernel.Schedule(f.Down, func() { inj.net.ReconnectSwitch(f.DPID) })
	}
}

// ReplicaSet is the clustered-control-plane surface chaos drives:
// killing and reviving controller replicas by ID. *cluster.Cluster
// satisfies it; the indirection keeps this package free of a cluster
// dependency for non-clustered networks.
type ReplicaSet interface {
	ReplicaCount() int
	Crash(rid int) bool
	Restart(rid int) bool
}

// ControllerCrash kills one controller replica: its mastered switches
// drain exactly like a Disconnect (pending probes fail, links evict
// "switch-down") and the surviving replicas elect a new master for
// them. With Down > 0 the replica revives that long after the crash,
// rejoining as a slave; otherwise it stays dead.
type ControllerCrash struct {
	Replica int
	Down    time.Duration
}

// Class implements Fault.
func (f *ControllerCrash) Class() Class { return ClassControllerCrash }

// Duration implements Fault.
func (f *ControllerCrash) Duration() time.Duration { return f.Down }

func (f *ControllerCrash) apply(inj *Injector) {
	rs := inj.cluster
	if rs == nil {
		return
	}
	inj.kernel.Schedule(0, func() { rs.Crash(f.Replica) })
	if f.Down > 0 {
		inj.kernel.Schedule(f.Down, func() { rs.Restart(f.Replica) })
	}
}

// ControllerRestart revives a previously crashed replica, for scripted
// plans that separate the crash and the revival (randomized plans fold
// both into ControllerCrash.Down).
type ControllerRestart struct {
	Replica int
}

// Class implements Fault.
func (f *ControllerRestart) Class() Class { return ClassControllerCrash }

// Duration implements Fault.
func (f *ControllerRestart) Duration() time.Duration { return 0 }

func (f *ControllerRestart) apply(inj *Injector) {
	rs := inj.cluster
	if rs == nil {
		return
	}
	inj.kernel.Schedule(0, func() { rs.Restart(f.Replica) })
}

// TimedFault pairs a fault with its start offset from injection time.
type TimedFault struct {
	After time.Duration
	Fault Fault
}

// Plan is an ordered fault scenario.
type Plan []TimedFault

// End reports when the last fault in the plan clears, relative to
// injection time.
func (p Plan) End() time.Duration {
	var end time.Duration
	for _, tf := range p {
		if t := tf.After + tf.Fault.Duration(); t > end {
			end = t
		}
	}
	return end
}

// injMetrics are the injector's observability handles.
type injMetrics struct {
	flaps   *obs.Counter
	byClass map[Class]*obs.Counter
}

// Injector schedules faults on one network. Its RNG is private and
// seeded, so randomized plans replay identically for a given seed, and
// drawing from it never perturbs the simulation's own random stream.
type Injector struct {
	net     *netsim.Network
	kernel  *sim.Kernel
	rng     *rand.Rand
	cluster ReplicaSet
	m       injMetrics
}

// NewInjector binds an injector to a network. Fault counters land in the
// network's metrics registry under chaos_*.
func NewInjector(net *netsim.Network, seed int64) *Injector {
	reg := net.Metrics()
	m := injMetrics{
		flaps:   reg.Counter("chaos_carrier_flaps_total"),
		byClass: make(map[Class]*obs.Counter, len(Classes())),
	}
	for _, c := range Classes() {
		m.byClass[c] = reg.Counter(fmt.Sprintf("chaos_faults_total{class=%q}", string(c)))
	}
	return &Injector{
		net:    net,
		kernel: net.Kernel,
		rng:    rand.New(rand.NewSource(seed)),
		m:      m,
	}
}

// Rand exposes the injector's private RNG for callers composing their own
// randomized scenarios.
func (inj *Injector) Rand() *rand.Rand { return inj.rng }

// BindCluster attaches the clustered control plane the controller-crash
// fault class operates on. Without a binding, ControllerCrash faults
// are inert and PlanFor(ClassControllerCrash) returns nil.
func (inj *Injector) BindCluster(rs ReplicaSet) { inj.cluster = rs }

// Inject arms one fault to start after the given delay. The fault's
// internal schedule is laid out immediately (deterministically); only its
// effects wait for the kernel clock.
func (inj *Injector) Inject(after time.Duration, f Fault) {
	inj.m.byClass[f.Class()].Inc()
	if after == 0 {
		f.apply(inj)
		return
	}
	inj.kernel.Schedule(after, func() { f.apply(inj) })
}

// Apply arms every fault in a plan.
func (inj *Injector) Apply(p Plan) {
	for _, tf := range p {
		inj.Inject(tf.After, tf.Fault)
	}
}

// PlanFor draws a randomized single-class scenario for the injector's
// network from its private RNG: which trunk flaps and how often, which
// paths degrade and by how much, which switch goes dark and for how
// long. The draw order is fixed, so a given (network, seed) always
// yields the same plan.
func (inj *Injector) PlanFor(class Class) Plan {
	r := inj.rng
	trunks := inj.net.Trunks()
	switches := inj.net.SwitchIDs()
	switch class {
	case ClassFlapStorm:
		if len(trunks) == 0 {
			return nil
		}
		target := trunks[r.Intn(len(trunks))]
		flaps := 3 + r.Intn(4) // 3..6 flaps
		return Plan{{Fault: &FlapStorm{
			Target: target,
			End:    link.EndA,
			Flaps:  flaps,
			Down:   500*time.Millisecond + time.Duration(r.Intn(1500))*time.Millisecond,
			Up:     time.Second + time.Duration(r.Intn(2000))*time.Millisecond,
		}}}
	case ClassLossEpisode:
		targets := make([]LossyPath, 0, len(trunks)+1)
		for _, t := range trunks {
			targets = append(targets, t)
		}
		// One control channel joins the episode: loss is rarely confined
		// to the dataplane when a shared fabric degrades.
		if len(switches) > 0 {
			targets = append(targets, inj.net.ControlChannel(switches[r.Intn(len(switches))]))
		}
		return Plan{{Fault: &LossEpisode{
			Targets: targets,
			Rate:    0.4 + 0.4*r.Float64(), // 40-80% loss
			Length:  20*time.Second + time.Duration(r.Intn(30))*time.Second,
		}}}
	case ClassLatencySpike:
		targets := make([]LatencyPath, 0, len(trunks))
		for _, t := range trunks {
			targets = append(targets, t)
		}
		return Plan{{Fault: &LatencySpike{
			Targets: targets,
			Factor:  4 + 6*r.Float64(), // 4-10x
			Offset:  time.Duration(r.Intn(50)) * time.Millisecond,
			Length:  10*time.Second + time.Duration(r.Intn(20))*time.Second,
		}}}
	case ClassDisconnect:
		if len(switches) == 0 {
			return nil
		}
		return Plan{{Fault: &Disconnect{
			DPID: switches[r.Intn(len(switches))],
			Down: 5*time.Second + time.Duration(r.Intn(20))*time.Second,
		}}}
	case ClassControllerCrash:
		if inj.cluster == nil || inj.cluster.ReplicaCount() < 2 {
			return nil
		}
		// Down comfortably exceeds detection + election + rediscovery, so
		// the failover completes while the replica is dead and the revival
		// exercises the slave-rejoin replay.
		return Plan{{Fault: &ControllerCrash{
			Replica: r.Intn(inj.cluster.ReplicaCount()),
			Down:    10*time.Second + time.Duration(r.Intn(20))*time.Second,
		}}}
	}
	return nil
}
