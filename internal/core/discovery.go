package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/exp"
	"sdntamper/internal/link"
)

// This file holds the discovery-protocol experiments: steady-state load
// (OFDP's per-interval port sweep vs sOFTDP's event-driven probing),
// link-failure detection latency (periodic timeout sweep vs per-link BFD
// watch), shard-count byte-identity of the sOFTDP event schedule, and
// the attack matrix re-run under both protocols.

// softdpOpt selects event-driven discovery on a scenario controller.
func softdpOpt() controller.Option {
	return controller.WithDiscovery(controller.DiscoverySOFTDP)
}

func protocolOpts(p controller.DiscoveryProtocol) []controller.Option {
	if p == controller.DiscoverySOFTDP {
		return []controller.Option{softdpOpt()}
	}
	return nil
}

// DiscoveryLoadResult is one (fat-tree arity, protocol) steady-state
// measurement. Probes/Bytes/Events are deltas over the measurement
// window only, after the settle period has carried sOFTDP's refresh
// backoff to its cap; Wall is the only host-dependent field.
type DiscoveryLoadResult struct {
	K             int    `json:"k"`
	Protocol      string `json:"protocol"`
	Switches      int    `json:"switches"`
	Ports         int    `json:"ports"`
	Trunks        int    `json:"trunks"`
	DirectedLinks int    `json:"directed_links"`
	BFDSessions   int64  `json:"bfd_sessions"`

	SettleVirtual  time.Duration `json:"settle_ns"`
	MeasureVirtual time.Duration `json:"measure_window_ns"`
	Probes         uint64        `json:"probes_in_window"`        // LLDP probes emitted inside the window
	ProbeBytes     uint64        `json:"probe_bytes_in_window"`   // LLDP payload bytes inside the window
	Events         uint64        `json:"kernel_events_in_window"` // kernel events executed inside the window
	ProbesPerSec   float64       `json:"probes_per_sec"`
	EventsPerSec   float64       `json:"events_per_sec"`
	Wall           time.Duration `json:"-"`
}

// discoveryLoadSettle carries sOFTDP's per-link refresh backoff
// (15 s doubling to the 150 s cap, ~375 s cumulative) past its last
// transition so the measurement window sees only steady state.
const (
	discoveryLoadSettle  = 400 * time.Second
	discoveryLoadMeasure = 150 * time.Second
)

// RunDiscoveryLoad measures one protocol's steady-state discovery load
// on a quiescent k-ary fat-tree with no defense modules and no host
// traffic: every event in the measurement window is discovery machinery.
// It errors if the protocol failed to discover the complete topology
// before the window opens — load numbers for a half-discovered fabric
// would flatter the event-driven protocol.
func RunDiscoveryLoad(seed int64, k int, proto controller.DiscoveryProtocol) (*DiscoveryLoadResult, error) {
	wallStart := time.Now()
	s, topo := NewFatTreeScenario(seed, k, NoDefenses(), protocolOpts(proto)...)
	defer s.Close()

	res := &DiscoveryLoadResult{
		K:              k,
		Protocol:       proto.String(),
		Switches:       topo.Switches(),
		Ports:          topo.Switches() * k, // every fat-tree switch has k ports
		Trunks:         len(s.Net.Trunks()),
		SettleVirtual:  discoveryLoadSettle,
		MeasureVirtual: discoveryLoadMeasure,
	}

	if err := s.Run(discoveryLoadSettle); err != nil {
		return nil, err
	}
	res.DirectedLinks = len(s.Controller().Links())
	if want := 2 * res.Trunks; res.DirectedLinks != want {
		return nil, fmt.Errorf("%s k=%d: discovered %d directed links before measurement, want %d",
			res.Protocol, k, res.DirectedLinks, want)
	}

	probes0, bytes0 := s.Controller().DiscoveryStats()
	events0 := s.Net.Kernel.Executed()
	if err := s.Run(discoveryLoadMeasure); err != nil {
		return nil, err
	}
	probes1, bytes1 := s.Controller().DiscoveryStats()
	res.Probes = probes1 - probes0
	res.ProbeBytes = bytes1 - bytes0
	res.Events = s.Net.Kernel.Executed() - events0
	res.ProbesPerSec = float64(res.Probes) / discoveryLoadMeasure.Seconds()
	res.EventsPerSec = float64(res.Events) / discoveryLoadMeasure.Seconds()
	res.BFDSessions = s.Controller().BFDSessionCount()
	res.Wall = time.Since(wallStart)
	return res, nil
}

// DiscoveryDetectionResult reports how one protocol notices a dead trunk:
// the time from total silence on the link (loss rate driven to 1, no
// Port-Status raised) to the eviction of both directed links, plus what
// else got evicted on the way (false evictions) and how quickly the
// topology healed once the trunk came back.
type DiscoveryDetectionResult struct {
	Protocol        string        `json:"protocol"`
	Trunks          int           `json:"trunks"`
	DetectionFwd    time.Duration `json:"detection_fwd_ns"`     // fault to eviction, A->B direction
	DetectionRev    time.Duration `json:"detection_rev_ns"`     // fault to eviction, B->A direction
	Detection       time.Duration `json:"detection_latency_ns"` // max of the two (the topology is stale until both go)
	EvictionReasons []string      `json:"eviction_reasons"`     // reasons for the two target evictions, in eviction order
	FalseEvictions  int           `json:"false_evictions"`      // evictions of links other than the dead trunk's two
	Recovered       bool          `json:"recovered"`            // both directions re-discovered after repair
	Recovery        time.Duration `json:"recovery_latency_ns"`  // repair to second re-discovery
}

// evictionLog records link evictions with their virtual timestamps.
type evictionLog struct {
	s       *Scenario
	entries []evictionEntry
}

type evictionEntry struct {
	at     time.Duration
	link   controller.Link
	reason string
}

func (r *evictionLog) ModuleName() string { return "experiment/eviction-log" }

func (r *evictionLog) ObserveLinkRemoved(l controller.Link, reason string) {
	r.entries = append(r.entries, evictionEntry{at: r.s.Net.Kernel.Elapsed(), link: l, reason: reason})
}

// linkAddLog records accepted link updates with their virtual timestamps.
type linkAddLog struct {
	s       *Scenario
	entries []evictionEntry
}

func (r *linkAddLog) ModuleName() string { return "experiment/link-add-log" }

func (r *linkAddLog) ObserveLink(ev *controller.LinkEvent) {
	if ev.IsNew {
		r.entries = append(r.entries, evictionEntry{at: r.s.Net.Kernel.Elapsed(), link: ev.Link})
	}
}

// RunDiscoveryDetection kills one trunk of a k=4 fat-tree (loss rate 1.0,
// injected between runs so neither switch raises a Port-Status — the
// failure mode link timeouts exist for) under TOPOGUARD+ and measures
// the protocol's time to evict both directed links, then repairs the
// trunk and measures re-discovery. OFDP pays its link-timeout sweep
// (up to LinkTimeout after the last accepted probe); sOFTDP's per-link
// BFD watch fires within its ~300 ms detect window.
func RunDiscoveryDetection(seed int64, proto controller.DiscoveryProtocol) (*DiscoveryDetectionResult, error) {
	s, topo := NewFatTreeScenario(seed, 4, TopoGuardPlus(), protocolOpts(proto)...)
	defer s.Close()

	res := &DiscoveryDetectionResult{Protocol: proto.String(), Trunks: len(s.Net.Trunks())}
	evl := &evictionLog{s: s}
	adl := &linkAddLog{s: s}
	s.Controller().Register(evl)
	s.Controller().Register(adl)

	if err := s.Run(45 * time.Second); err != nil {
		return nil, err
	}
	if got, want := len(s.Controller().Links()), 2*res.Trunks; got != want {
		return nil, fmt.Errorf("%s: %d directed links before fault, want %d", res.Protocol, got, want)
	}

	tr := topo.Trunks[0]
	fwd := controller.Link{
		Src: controller.PortRef{DPID: tr.ADPID, Port: tr.APort},
		Dst: controller.PortRef{DPID: tr.BDPID, Port: tr.BPort},
	}
	rev := fwd.Reverse()
	wire := s.Net.Trunks()[0]

	faultAt := s.Net.Kernel.Elapsed()
	wire.SetLossRate(1.0)
	if err := s.Run(60 * time.Second); err != nil {
		return nil, err
	}

	var fwdAt, revAt time.Duration
	for _, e := range evl.entries {
		if e.at < faultAt {
			// Pre-fault evictions (there should be none on a quiet fabric)
			// count as false: the protocol dropped a live link.
			res.FalseEvictions++
			continue
		}
		switch e.link {
		case fwd:
			fwdAt = e.at
			res.EvictionReasons = append(res.EvictionReasons, e.reason)
		case rev:
			revAt = e.at
			res.EvictionReasons = append(res.EvictionReasons, e.reason)
		default:
			res.FalseEvictions++
		}
	}
	if fwdAt == 0 || revAt == 0 {
		return nil, fmt.Errorf("%s: dead trunk not fully evicted within 60s (fwd=%v rev=%v)",
			res.Protocol, fwdAt, revAt)
	}
	res.DetectionFwd = fwdAt - faultAt
	res.DetectionRev = revAt - faultAt
	res.Detection = res.DetectionFwd
	if res.DetectionRev > res.Detection {
		res.Detection = res.DetectionRev
	}

	repairAt := s.Net.Kernel.Elapsed()
	adl.entries = nil
	wire.SetLossRate(0)
	if err := s.Run(30 * time.Second); err != nil {
		return nil, err
	}
	var backFwd, backRev time.Duration
	for _, e := range adl.entries {
		switch e.link {
		case fwd:
			if backFwd == 0 {
				backFwd = e.at
			}
		case rev:
			if backRev == 0 {
				backRev = e.at
			}
		}
	}
	res.Recovered = backFwd > 0 && backRev > 0 &&
		s.Controller().HasLink(fwd) && s.Controller().HasLink(rev)
	if res.Recovered {
		res.Recovery = backFwd - repairAt
		if r := backRev - repairAt; r > res.Recovery {
			res.Recovery = r
		}
	}
	return res, nil
}

// DiscoveryIdentityResult is one shard configuration's run of the churn
// scenario RunDiscoveryByteIdentity drives. The tagged fields and the
// Fingerprint rendering must match across configurations.
type DiscoveryIdentityResult struct {
	Shards      int           `json:"-"`
	Parallel    bool          `json:"-"`
	Fingerprint string        `json:"-"` // links + merged metrics + executed events
	Events      uint64        `json:"events_executed"`
	Leaked      int           `json:"pending_leaked"` // pending probes left after the final drain (must be 0)
	Wall        time.Duration `json:"-"`
}

// discoveryIdentityConfigs is the shard/parallel sweep the sOFTDP
// byte-identity gate runs: serial single-kernel reference, then 2 and 5
// shards each serial and parallel.
var discoveryIdentityConfigs = []exp.Config{
	{Shards: 1},
	{Shards: 2},
	{Shards: 2, Parallel: true},
	{Shards: 5},
	{Shards: 5, Parallel: true},
}

// RunDiscoveryByteIdentity drives a churn-heavy sOFTDP scenario — host
// interface flaps through the debounce window, an intra-pod trunk
// carrier flap, a trunk silenced and repaired via loss injection — on a
// k=4 fat-tree under TOPOGUARD+ at every shard configuration, and
// fingerprints the deterministic surface (sorted link set, merged
// metrics, total executed events). All fingerprints must match the
// serial reference: sOFTDP's event timers derive from sim.MixSeed and
// identity, never from kernel RNG state or shard geometry.
func RunDiscoveryByteIdentity(seed int64) ([]DiscoveryIdentityResult, error) {
	return exp.Equivalent(discoveryIdentityConfigs, func(cfg exp.Config) (DiscoveryIdentityResult, string, error) {
		res, err := runDiscoveryIdentityOnce(seed, cfg.Shards, cfg.Parallel)
		if err != nil {
			return DiscoveryIdentityResult{}, "", err
		}
		return *res, res.Fingerprint, nil
	})
}

func runDiscoveryIdentityOnce(seed int64, shards int, parallel bool) (*DiscoveryIdentityResult, error) {
	wallStart := time.Now()
	s, topo := NewShardedFatTreeScenario(seed, 4, shards, TopoGuardPlus(), softdpOpt())
	defer s.Close()
	s.Net.SetParallel(parallel)

	if err := s.Run(30 * time.Second); err != nil {
		return nil, err
	}

	// Host interface flap storm: three transitions inside one debounce
	// window, then a settle — must collapse to one probe and leak nothing.
	host := s.Net.Host(topo.HostNames[0])
	host.InterfaceDown()
	if err := s.Run(50 * time.Millisecond); err != nil {
		return nil, err
	}
	host.InterfaceUp()
	if err := s.Run(50 * time.Millisecond); err != nil {
		return nil, err
	}
	host.InterfaceDown()
	if err := s.Run(50 * time.Millisecond); err != nil {
		return nil, err
	}
	host.InterfaceUp()
	if err := s.Run(5 * time.Second); err != nil {
		return nil, err
	}

	// Carrier flap on an intra-pod trunk (edge-agg trunks never split
	// across shards: FatTreePartition keeps pods whole, and SetCarrier
	// on a split link would panic). Port-Status eviction plus BFD path
	// transition, then rediscovery on restore.
	wire0 := s.Net.Trunks()[0]
	wire0.SetCarrier(link.EndA, false)
	if err := s.Run(2 * time.Second); err != nil {
		return nil, err
	}
	wire0.SetCarrier(link.EndA, true)
	if err := s.Run(8 * time.Second); err != nil {
		return nil, err
	}

	// Silent trunk death and repair via loss injection (also intra-pod;
	// loss mutation is legal between runs): BFD detect eviction, then
	// path-recovery reprobes.
	wire1 := s.Net.Trunks()[1]
	wire1.SetLossRate(1.0)
	if err := s.Run(2 * time.Second); err != nil {
		return nil, err
	}
	wire1.SetLossRate(0)
	if err := s.Run(10 * time.Second); err != nil {
		return nil, err
	}

	// Drain: all debounce windows, pending LLDP stamps and recovery
	// probes settle.
	if err := s.Run(40 * time.Second); err != nil {
		return nil, err
	}

	res := &DiscoveryIdentityResult{Shards: shards, Parallel: parallel}
	res.Events = s.Net.Group.Executed()
	res.Leaked = s.Net.Controller.PendingProbes().Total()
	if res.Leaked != 0 {
		return nil, fmt.Errorf("%d pending probes leaked after drain", res.Leaked)
	}

	links := s.Net.Controller.Links()
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.String()
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "links=%v\nevents=%d\n", names, res.Events)
	if err := s.Net.MergedMetrics().Snapshot().WritePrometheus(&b); err != nil {
		return nil, err
	}
	res.Fingerprint = b.String()
	res.Wall = time.Since(wallStart)
	return res, nil
}

// DiscoveryMatrixRow is one attack evaluated under both discovery
// protocols: OFDP with the full defense stack (the attack matrix's
// rightmost column), sOFTDP with the full stack, and sOFTDP with no
// defenses at all — the last column shows what the event-driven probe
// schedule denies an attacker before any defense module runs (a naive
// LLDP relay starves: no periodic probes ever reach a quiet host port).
type DiscoveryMatrixRow struct {
	Attack           string  `json:"attack"`
	OFDPFullStack    Verdict `json:"ofdp_full_stack"`
	SOFTDPFullStack  Verdict `json:"softdp_full_stack"`
	SOFTDPNoDefenses Verdict `json:"softdp_no_defenses"`
}

// RunDiscoveryMatrix re-runs the seven attack rows under the discovery
// protocol dimension, plus an eighth row for the adaptive OOB attacker
// (amnesia with a second flap after the relay bridges are live — the
// only way to draw a probe out of an event-driven prober). Row order
// and the per-row seed stride match RunAttackMatrix.
func RunDiscoveryMatrix(seed int64) ([]DiscoveryMatrixRow, error) {
	rows := append(attackRows(), matrixRow{
		name: "adaptive OOB amnesia (re-flap after bridge)",
		run: fabricationCell(attack.FabricationConfig{
			UseAmnesia:        true,
			ReflapAfterBridge: true,
		}),
	})
	softdp := []controller.Option{softdpOpt()}
	cells, err := runMatrix(seed, rows, []matrixColumn{
		{def: FullStack()},
		{def: FullStack(), ctlOpts: softdp, seedOffset: 1},
		{def: NoDefenses(), ctlOpts: softdp, seedOffset: 2},
	})
	if err != nil {
		return nil, err
	}
	out := make([]DiscoveryMatrixRow, len(rows))
	for i, c := range cells {
		out[i] = DiscoveryMatrixRow{rows[i].name, c[0].verdict, c[1].verdict, c[2].verdict}
	}
	return out, nil
}
