package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sdntamper/internal/attack"
	"sdntamper/internal/cluster"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/netsim"
	"sdntamper/internal/ratemon"
	"sdntamper/internal/sim"
	"sdntamper/internal/tgplus"
	"sdntamper/internal/topoguard"
)

// ClusterScenario is a Figure 9 line under a replicated control plane:
// two controller replicas on the control shard, switches 1-2 mastered
// by replica 0 and switches 3-4 by replica 1, every replica running its
// own copy of the selected defense stack. In the clustered Figure 9
// testbed the split makes the fabricated link's two LLDP directions —
// (2,1)→(3,1) and (3,1)→(2,1) — adjudicated by DIFFERENT replicas, the
// partitioned-view condition the matrix evaluates; its trunks use the
// steady (burst-free) latency so a defense alert in a cluster
// experiment is evidence, never an IQR-tail artifact.
type ClusterScenario struct {
	// Scenario's Modules are replica 0's; Run, Host, Close and the
	// alert counts span every replica. OOB is the attackers' side
	// channel (unwired until an attack bridges it), living on the
	// control shard like the attacker hosts.
	Scenario
	Cluster *cluster.Cluster
}

// fig9ClusterPartition spreads the Figure 9 line over the shards while
// keeping the attack-adjacent middle (switches 2 and 3, both attacker
// hosts, the OOB channel) on the control shard: switch 1 moves to shard
// 1 and switch 4 to the last extra shard. Identity-seeded RNG streams
// make placement irrelevant to the simulation's outcome; this spread
// exists to prove exactly that for the cluster layer.
func fig9ClusterPartition(shards int) map[uint64]int {
	part := map[uint64]int{1: 0, 2: 0, 3: 0, 4: 0}
	if shards > 1 {
		part[1] = 1
		part[4] = 1
	}
	if shards > 2 {
		part[4] = 2
	}
	return part
}

// replicas is the size of every replicated control plane.
const replicas = 2

// NewClusterFig9Scenario assembles the clustered Figure 9 testbed.
// replicate selects whether the replicas share the replicated log (the
// deployment mode) or run with fully isolated views (the
// partitioned-matrix control variant). A replica without fresh control
// baselines for a link's endpoints records the LLI measurement
// unenforced instead of guessing.
func NewClusterFig9Scenario(seed int64, shards int, def Defenses, replicate bool) *ClusterScenario {
	return newClusterScenario(seed, def, replicate,
		func(opts ...controller.Option) *netsim.Network {
			return netsim.NewSharded(seed, shards, fig9ClusterPartition(shards), opts...)
		},
		func(s *Scenario) {
			addFig9Line(s.Net, testbedHostLink())
			s.Net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.1", 1, 1, testbedHostLink())
			s.Net.AddHost(HostAttackerA, "aa:aa:aa:aa:aa:01", "10.0.0.11", 2, 1, testbedHostLink())
			s.Net.AddHost(HostAttackerB, "aa:aa:aa:aa:aa:02", "10.0.0.12", 3, 1, testbedHostLink())
			s.Net.AddHost(HostServer, "cc:cc:cc:cc:cc:02", "10.0.0.2", 4, 1, testbedHostLink(),
				dataplane.WithOpenTCPPorts(80))
			s.OOB = s.Net.AddOOBChannel(OOBLatency())
		})
}

// NewClusterChaosLine builds the chaos line of NewChaosLine on one
// kernel under a replicated control plane, for the controller-crash
// fault class: TOPOGUARD+ on every replica, switches 1-2 mastered by
// replica 0 and 3-4 by replica 1. An LLI records a measurement
// unenforced while either switch lacks a control estimate, so the
// post-handover blind window records unenforced passes instead of
// spurious alerts.
func NewClusterChaosLine(seed int64, trunkLatency sim.Sampler) *ClusterScenario {
	return newClusterScenario(seed, TopoGuardPlus(), true,
		func(opts ...controller.Option) *netsim.Network { return netsim.New(seed, opts...) },
		func(s *Scenario) {
			addFig9Line(s.Net, trunkLatency)
			addChaosHosts(s.Net)
		})
}

// newClusterScenario assembles every replicated control plane. newNet
// creates the network on the stack's controller options and build adds
// its switches and hosts; then the cluster takes the switches over,
// each replica runs its own copy of the stack, and mastership splits
// the switches down the middle, the first half on replica 0.
//
// The options are built once and every extra replica reuses them, so
// the whole control plane holds one LLDP keychain. Extra replicas run on
// the control kernel and record into the control shard's registry, so
// merged metrics aggregate the whole control plane and stay
// byte-identical across shard counts.
func newClusterScenario(seed int64, def Defenses, replicate bool,
	newNet func(opts ...controller.Option) *netsim.Network, build func(*Scenario)) *ClusterScenario {
	opts := scenarioOptions(def)
	s := &ClusterScenario{Scenario: Scenario{Net: newNet(opts...), Def: def}}
	net := s.Net
	net.SetAutoAttach(false)
	build(&s.Scenario)

	ccfg := cluster.DefaultConfig(seed)
	ccfg.Metrics = net.ShardMetrics(0)
	ccfg.Replicate = replicate
	s.Cluster = cluster.New(net, ccfg)
	for i := 0; i < replicas; i++ {
		ctl := net.Controller
		if i > 0 {
			ctl = controller.New(net.ControlKernel(),
				append([]controller.Option{controller.WithMetrics(net.ShardMetrics(0))}, opts...)...)
		}
		s.deployOn(ctl, s.Cluster.AddReplica(ctl))
	}
	dpids := net.SwitchIDs()
	for i, dpid := range dpids {
		s.Cluster.SetMaster(dpid, i*replicas/len(dpids))
	}
	return s
}

// Replica returns one replica's controller.
func (s *ClusterScenario) Replica(i int) *controller.Controller { return s.stacks[i].ctl }

// detectedBy maps the fired alert reasons to defense names, cluster-wide.
func (s *ClusterScenario) detectedBy() []string {
	var out []string
	add := func(name string, reasons ...string) {
		if s.alerts(reasons) > 0 {
			out = append(out, name)
		}
	}
	add("TopoGuard", topoguard.ReasonLLDPFromHost, topoguard.ReasonFirstHopFromSwitch,
		topoguard.ReasonMigrationPre, topoguard.ReasonMigrationPost)
	add("CMM", tgplus.ReasonControlMessage)
	add("LLI", tgplus.ReasonAbnormalDelay)
	add("RATEMON", ratemon.ReasonPortFlood)
	return out
}

// mergedProm renders the deterministic merged metrics snapshot.
func (s *ClusterScenario) mergedProm() (string, error) {
	var b strings.Builder
	if err := s.Net.MergedMetrics().Snapshot().WritePrometheus(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// FailoverResult is one clustered failover run. Every tagged field is
// deterministic for a fixed seed and byte-identical across shard counts
// and serial/parallel execution.
type FailoverResult struct {
	Seed     int64 `json:"seed"`
	Shards   int   `json:"-"`
	Parallel bool  `json:"-"`

	// Crash-relative virtual-time offsets of the failover span chain.
	ElectionNs      int64 `json:"election_ns"`
	HandoverNs      int64 `json:"handover_ns"`
	ReconvergenceNs int64 `json:"reconvergence_ns"`
	// BlindWindowNs is the LLI divergence window: crash → the winner
	// holds fresh control-RTT estimates for both re-homed switches and
	// can enforce latency verdicts on their links again.
	BlindWindowNs int64 `json:"lli_blind_window_ns"`

	ReplayedLinks int    `json:"replayed_links"`
	ReplayedHosts int    `json:"replayed_hosts"`
	PendingLeaked int    `json:"pending_leaked"`
	FalseAlerts   int    `json:"false_alerts"`
	Links         int    `json:"directed_links"`
	Events        uint64 `json:"events"`

	Timeline []string `json:"timeline"`

	MetricsProm string `json:"-"`
}

// RunFailover executes the headline failover experiment: warm the
// clustered Figure 9 testbed under full TOPOGUARD+, crash replica 1
// (master of switches 3 and 4), and measure the deterministic
// reconvergence — election, role handover, state replay, rediscovery —
// plus the LLI's post-handover blind window, with zero leaked probes
// and zero spurious defense alerts.
func RunFailover(seed int64, shards int, parallel bool) (*FailoverResult, error) {
	s := NewClusterFig9Scenario(seed, shards, TopoGuardPlus(), true)
	defer s.Close()
	s.Net.SetParallel(parallel)

	// Warm: handshakes, discovery over both masters, LLI control
	// baselines, and one cross-partition ping to populate the HTS.
	if err := s.Run(2 * time.Second); err != nil {
		return nil, err
	}
	var answered atomic.Int64
	s.Net.Host(HostClient).ARPPing(s.Net.Host(HostServer).IP(), 5*time.Second,
		func(r dataplane.ProbeResult) {
			if r.Alive {
				answered.Add(1)
			}
		})
	if err := s.Run(38 * time.Second); err != nil {
		return nil, err
	}
	if n := len(s.Cluster.LiveLinks()); n != 6 {
		return nil, fmt.Errorf("cluster warmup discovered %d directed links, want 6", n)
	}
	alertsBefore := s.AlertTotal()

	res := &FailoverResult{Seed: seed, Shards: shards, Parallel: parallel}
	s.Cluster.Crash(1)

	// Watch in fixed 50ms steps: the first step at which the winner's
	// LLI again holds control estimates for both re-homed switches marks
	// the end of the blind window; the failover timeline completes
	// independently. Fixed-step polling keeps the measurement a pure
	// function of virtual time.
	winnerLLI := s.LLI
	res.BlindWindowNs = -1
	const step = 50 * time.Millisecond
	for waited := time.Duration(0); waited <= 30*time.Second; waited += step {
		if res.BlindWindowNs < 0 {
			_, ok3 := winnerLLI.ControlLatency(3)
			_, ok4 := winnerLLI.ControlLatency(4)
			if ok3 && ok4 {
				res.BlindWindowNs = int64(waited)
			}
		}
		if res.BlindWindowNs >= 0 && len(s.Cluster.Timelines()) > 0 {
			break
		}
		if err := s.Run(step); err != nil {
			return nil, err
		}
	}
	tls := s.Cluster.Timelines()
	if len(tls) != 1 {
		return nil, fmt.Errorf("failover did not reconverge within the horizon (timelines=%d)", len(tls))
	}
	if res.BlindWindowNs < 0 {
		return nil, fmt.Errorf("winner LLI never rebuilt control estimates for the re-homed switches")
	}
	tl := tls[0]
	res.ElectionNs = int64(tl.ElectionAt.Sub(tl.CrashAt))
	res.HandoverNs = int64(tl.HandoverAt.Sub(tl.CrashAt))
	res.ReconvergenceNs = int64(tl.Reconvergence())
	res.ReplayedLinks = tl.ReplayedLinks
	res.ReplayedHosts = tl.ReplayedHosts
	res.Timeline = []string{
		"crash +0s",
		fmt.Sprintf("election.start +%v", tl.ElectionAt.Sub(tl.CrashAt)),
		fmt.Sprintf("role.handover +%v", tl.HandoverAt.Sub(tl.CrashAt)),
		fmt.Sprintf("state.replay %d links, %d hosts", tl.ReplayedLinks, tl.ReplayedHosts),
		fmt.Sprintf("rediscovery.done +%v", tl.Reconvergence()),
		fmt.Sprintf("lli.relearned +%v", time.Duration(res.BlindWindowNs)),
	}

	// Drain off a probe-tick phase (the extra 25ms can never land the
	// clock back on the LLI's 2s cadence), then check the invariants.
	if err := s.Run(time.Second + 25*time.Millisecond); err != nil {
		return nil, err
	}
	res.PendingLeaked = s.Cluster.PendingProbeTotal()
	res.FalseAlerts = s.AlertTotal() - alertsBefore
	res.Links = len(s.Replica(0).Links())
	res.Events = s.Net.Group.Executed()
	var err error
	if res.MetricsProm, err = s.mergedProm(); err != nil {
		return nil, err
	}
	return res, nil
}

// PartitionRow is one attack evaluated against the partitioned control
// plane: the same Figure 9 attack, with the two LLDP directions of the
// fabricated link adjudicated by different masters, under replicated or
// isolated controller views.
type PartitionRow struct {
	Attack     string   `json:"attack"`
	Replicated bool     `json:"replicated"`
	Fabricated bool     `json:"fabricated"`
	DetectedBy []string `json:"detected_by"`
	Verdict    Verdict  `json:"verdict"`
}

// PartitionMatrixResult is the partitioned-view attack matrix. Every
// tagged field is byte-identical across shard counts and serial/parallel
// execution.
type PartitionMatrixResult struct {
	Seed     int64          `json:"seed"`
	Shards   int            `json:"-"`
	Parallel bool           `json:"-"`
	Rows     []PartitionRow `json:"rows"`

	// MetricsProm concatenates each row's deterministic merged snapshot
	// in row order — the byte-identity surface for the shard sweep.
	MetricsProm string `json:"-"`
}

// RunPartitionedMatrix evaluates the attack matrix under partitioned
// controller views: OOB and in-band port-amnesia link fabrication and
// the two distributed flood variants, each under replicated and
// isolated modes. Expected shape: the CMM survives partitioning through
// the replicated port-status log (and loses the cross-master evidence
// when isolated), the LLI cannot enforce on cross-master links it has
// no control baselines for, and the rate monitor — purely local to each
// master's ingress ports — is indifferent to partitioning.
func RunPartitionedMatrix(seed int64, shards int, parallel bool) (*PartitionMatrixResult, error) {
	rows := []matrixRow{
		{"OOB port amnesia + link fabrication", clusterFabricationCell(false)},
		{"in-band port amnesia + link fabrication", clusterFabricationCell(true)},
		{"distributed SYN flood (spoofed sources)", floodCell(attack.SYNFlood)},
		{"distributed link saturation (UDP)", floodCell(attack.LinkSaturation)},
	}
	var cols []matrixColumn
	for _, replicated := range []bool{true, false} {
		cols = append(cols, matrixColumn{def: FullStack(), cluster: &clusterView{shards, parallel, replicated}})
	}
	cells, err := runMatrix(seed, rows, cols)
	if err != nil {
		return nil, err
	}
	res := &PartitionMatrixResult{Seed: seed, Shards: shards, Parallel: parallel}
	var prom strings.Builder
	for i, rowCells := range cells {
		for j, c := range rowCells {
			res.Rows = append(res.Rows, PartitionRow{
				Attack:     rows[i].name,
				Replicated: cols[j].cluster.replicated,
				Fabricated: c.fabricated,
				DetectedBy: c.detectedBy,
				Verdict:    c.verdict,
			})
			prom.WriteString(c.prom)
		}
	}
	res.MetricsProm = prom.String()
	return res, nil
}

// clusterView is a matrix column's clustered control plane: its shard
// geometry and whether the replicas share the replicated log.
type clusterView struct {
	shards     int
	parallel   bool
	replicated bool
}

func (v *clusterView) scenario(seed int64, def Defenses) *ClusterScenario {
	s := NewClusterFig9Scenario(seed, v.shards, def, v.replicated)
	s.Net.SetParallel(v.parallel)
	return s
}

// result reports a finished clustered cell: its verdict, the
// defenses that alerted anywhere in the cluster, and the merged metrics
// snapshot.
func (s *ClusterScenario) result(v Verdict, fabricated bool) (cellResult, error) {
	res := cellResult{verdict: v, fabricated: fabricated, detectedBy: s.detectedBy()}
	var err error
	res.prom, err = s.mergedProm()
	return res, err
}

// clusterFabricationCell runs one port-amnesia link fabrication against
// the partitioned control plane. The rate monitor has nothing to see in
// a relay, so the column's stack runs without it.
func clusterFabricationCell(inband bool) matrixCell {
	return func(col matrixColumn, seed int64) (cellResult, error) {
		def := col.def
		def.RateMon = false
		s := col.cluster.scenario(seed, def)
		defer s.Close()
		// Each replica watches for the fabricated link committing on ITS
		// side: under partitioned views the two directions land on
		// different masters, so both must be observed.
		recs := make([]*linkSeen, 2)
		for i := range recs {
			recs[i] = &linkSeen{want: FabricatedLinkFig9()}
			s.Replica(i).Register(recs[i])
		}
		if err := s.Run(2 * time.Second); err != nil {
			return cellResult{}, err
		}
		// HOST-profile the attacker ports, as in Figure 1.
		s.Host(HostAttackerA).ARPPing(s.Host(HostClient).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
		s.Host(HostAttackerB).ARPPing(s.Host(HostServer).IP(), 300*time.Millisecond, func(dataplane.ProbeResult) {})
		// Calibration: LLI control baselines on both masters.
		if err := s.Run(62 * time.Second); err != nil {
			return cellResult{}, err
		}
		alertsBefore := s.AlertTotal()
		if inband {
			attack.NewInBandFabrication(s.Net.ControlKernel(),
				s.Host(HostAttackerA), s.Host(HostAttackerB), 0).Start()
		} else {
			attack.NewOOBFabrication(s.Net.ControlKernel(),
				s.Host(HostAttackerA), s.Host(HostAttackerB), s.OOB,
				attack.FabricationConfig{UseAmnesia: true}).Start()
		}
		if err := s.Run(50 * time.Second); err != nil {
			return cellResult{}, err
		}
		fabricated := recs[0].count+recs[1].count > 0
		return s.result(landedVerdict(fabricated, s.AlertTotal() > alertsBefore), fabricated)
	}
}
