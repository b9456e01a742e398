package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/ratemon"
	"sdntamper/internal/stats"
	"sdntamper/internal/traffic"
)

// DoSRateMonConfig returns the monitor tuning used by the DoS scenario
// family for each variant: the modeled access-link bandwidth sets the
// dynamic threshold, the 5 s quarantine is short enough for one run to
// capture the unblock-then-reoffend cycle.
func DoSRateMonConfig(variant attack.DoSVariant) ratemon.Config {
	cfg := ratemon.DefaultConfig()
	cfg.BlockDuration = 5 * time.Second
	if variant == attack.SYNFlood {
		// SYNs are tiny; model a 1 Mbps access link so the byte threshold
		// (100 KB/s) sits between the legit load and the flood.
		cfg.LinkBandwidthBps = 1_000_000
	} else {
		// Near-MTU datagrams; 8 Mbps → 800 KB/s threshold.
		cfg.LinkBandwidthBps = 8_000_000
	}
	return cfg
}

// dosLegitProfile is the background-load shape: 2 flows/s of
// heavy-tailed flow sizes, ≈15 KB/s per host — far under either
// variant's threshold.
func dosLegitProfile() traffic.Profile {
	return traffic.Profile{
		FlowsPerSec: 2,
		FlowSize:    stats.BoundedPareto{Alpha: 1.2, Min: 2_000, Max: 200_000},
	}
}

// dosBurstFlows sizes the legitimate-burst control: ≈150 × 7.3 KB ≈
// 1.1 MB drained in ≈140 ms — over either variant's threshold within
// its single poll interval, but gone by the next one, so SustainPolls=2
// must ride it out without blocking.
const dosBurstFlows = 150

// DoSResult summarizes one distributed-DoS run against the FullStack
// defenses. Every tagged field is deterministic for a fixed seed and
// identical across shard counts and serial/parallel execution; the
// untagged ones are the configuration, its geometry, the wall clock and
// the metrics text.
type DoSResult struct {
	Variant   string `json:"variant"`
	K         int    `json:"k"`
	Shards    int    `json:"-"`
	Parallel  bool   `json:"-"`
	Attackers int    `json:"attackers"`
	Victim    string `json:"victim"`

	// DetectionLatency is virtual time from attack start to the first
	// auto-block (zero when nothing was blocked).
	DetectionLatency time.Duration `json:"detection_latency_ns"`
	Blocks           int           `json:"blocks"`                    // total auto-blocks
	AttackerBlocks   int           `json:"attacker_blocks"`           // blocks landing on attacker ports
	VictimBlocks     int           `json:"victim_backscatter_blocks"` // blocks on the victim's own port (SYN backscatter)
	FalseBlocks      int           `json:"false_blocks"`              // blocks on any other port — must be zero
	Unblocks         int           `json:"unblocks"`
	Reblocked        int           `json:"reblocked"` // blocks of a previously released port

	LegitFlows    uint64 `json:"legit_flows"`
	LegitPackets  uint64 `json:"legit_packets"`
	LegitBytes    uint64 `json:"legit_bytes"`
	AttackPackets uint64 `json:"attack_packets"`
	PingsAnswered int    `json:"pings_answered"`

	Events      uint64        `json:"events_executed"` // total executed events (shard-count invariant)
	ShardEvents []uint64      `json:"-"`               // per-shard executed events (geometry)
	VirtualTime time.Duration `json:"virtual_time_ns"` // simulated span
	Wall        time.Duration `json:"-"`               // host wall-clock cost (non-deterministic)
	MetricsProm string        `json:"-"`               // merged registries, Prometheus text
}

// RunDoS runs the distributed DoS scenario on a k-ary fat-tree under the
// FullStack defenses, sharded `shards` ways:
//
//	0–30 s   discovery and defense baselines converge
//	30–35 s  ARP warm: every sender resolves the victim, paths install
//	35–45 s  legitimate phase — steady heavy-tailed load from pod 0,
//	         plus a single-interval burst at 40.3 s (false-block control)
//	45–60 s  attack: distributed flood, one attacker per edge switch
//	         outside the victim's pod; 5 s quarantine ⇒ the run captures
//	         block → auto-unblock → re-offend → re-block
//	60–63 s  attack stops; drain
//
// The legitimate generator runs through the whole attack so false
// blocks would have every chance to happen.
func RunDoS(seed int64, k, shards int, parallel bool, variant attack.DoSVariant) (*DoSResult, error) {
	wallStart := time.Now()
	def := FullStack()
	rmCfg := DoSRateMonConfig(variant)
	def.RateMonConfig = &rmCfg
	s, _ := NewShardedFatTreeScenario(seed, k, shards, def)
	defer s.Close()
	s.Net.SetParallel(parallel)

	victimName := fmt.Sprintf("p%d-e%d-h%d", 0, 0, 0)
	victim := s.Net.Host(victimName)
	victimLoc := s.Net.HostLocation(victimName)

	// One attacker per edge switch outside the victim's pod, so no two
	// flood streams share an access uplink.
	var attackers []*dataplane.Host
	attackerPorts := make(map[controller.PortRef]bool)
	for pod := 1; pod < k; pod++ {
		for e := 0; e < k/2; e++ {
			name := fmt.Sprintf("p%d-e%d-h%d", pod, e, 0)
			attackers = append(attackers, s.Net.Host(name))
			attackerPorts[s.Net.HostLocation(name)] = true
		}
	}

	legitName := fmt.Sprintf("p%d-e%d-h%d", 0, k/2-1, 0)
	burstName := fmt.Sprintf("p%d-e%d-h%d", 0, 0, k/2-1)
	legitHost, burstHost := s.Net.Host(legitName), s.Net.Host(burstName)

	res := &DoSResult{
		Variant:   variant.String(),
		K:         k,
		Shards:    shards,
		Parallel:  parallel,
		Attackers: len(attackers),
		Victim:    victimName,
	}

	// Phase 1: converge.
	if err := s.Run(30 * time.Second); err != nil {
		return nil, err
	}

	// Phase 2: warm. Every sender ARP-pings the victim: the replies
	// teach the controller the victim's location and install paths.
	// Probe callbacks fire on shard goroutines; tally atomically.
	var answered atomic.Int64
	onProbe := func(r dataplane.ProbeResult) {
		if r.Alive {
			answered.Add(1)
		}
	}
	for _, h := range attackers {
		h.ARPPing(victim.IP(), 4*time.Second, onProbe)
	}
	legitHost.ARPPing(victim.IP(), 4*time.Second, onProbe)
	burstHost.ARPPing(victim.IP(), 4*time.Second, onProbe)
	if err := s.Run(5 * time.Second); err != nil {
		return nil, err
	}
	res.PingsAnswered = int(answered.Load())
	if res.PingsAnswered < len(attackers)+2 {
		return nil, fmt.Errorf("warm phase: %d/%d ARP pings answered",
			res.PingsAnswered, len(attackers)+2)
	}

	// Phase 3: legitimate load, with the burst control mid-phase. The
	// burst lands 300 ms after a poll boundary and drains in ≈140 ms,
	// so exactly one poll interval sees it.
	legit := traffic.NewGenerator(legitHost, victim.MAC(), victim.IP(), 9000, dosLegitProfile(), seed, 0)
	burst := traffic.NewGenerator(burstHost, victim.MAC(), victim.IP(), 9001, dosLegitProfile(), seed, 1)
	legit.Start()
	if err := s.Run(5300 * time.Millisecond); err != nil {
		return nil, err
	}
	burst.Burst(dosBurstFlows)
	if err := s.Run(4700 * time.Millisecond); err != nil {
		return nil, err
	}

	// Phase 4: attack.
	dosCfg := attack.DoSConfig{Variant: variant, Seed: seed}
	if variant == attack.SYNFlood {
		dosCfg.PacketsPerSec = 2500 // ×54 B ≈ 135 KB/s per attacker port
	} else {
		dosCfg.PacketsPerSec = 1000 // ×1442 B ≈ 1.4 MB/s per attacker port
	}
	flood := attack.NewDoS(attackers, victim.MAC(), victim.IP(), dosCfg)
	attackStart := s.Net.Controller.Now()
	flood.Start()
	if err := s.Run(15 * time.Second); err != nil {
		return nil, err
	}
	flood.Stop()

	// Phase 5: drain.
	if err := s.Run(3 * time.Second); err != nil {
		return nil, err
	}
	legit.Stop()

	mon := s.RateMon
	blocks := mon.Blocks()
	res.Blocks = len(blocks)
	res.Unblocks = mon.Unblocks()
	res.Reblocked = mon.Reblocked()
	for _, b := range blocks {
		switch {
		case attackerPorts[b.Ref]:
			res.AttackerBlocks++
		case b.Ref == victimLoc:
			res.VictimBlocks++
		default:
			res.FalseBlocks++
		}
	}
	if len(blocks) > 0 {
		res.DetectionLatency = blocks[0].At.Sub(attackStart)
	}
	lc := legit.Counters()
	bc := burst.Counters()
	res.LegitFlows = lc.Flows + bc.Flows
	res.LegitPackets = lc.Packets + bc.Packets
	res.LegitBytes = lc.Bytes + bc.Bytes
	res.AttackPackets = flood.PacketsSent()
	res.Events = s.Net.Group.Executed()
	for i := 0; i < shards; i++ {
		res.ShardEvents = append(res.ShardEvents, s.Net.ShardExecuted(i))
	}
	res.VirtualTime = 63 * time.Second
	res.Wall = time.Since(wallStart)

	var b strings.Builder
	if err := s.Net.MergedMetrics().Snapshot().WritePrometheus(&b); err != nil {
		return nil, err
	}
	res.MetricsProm = b.String()
	return res, nil
}
