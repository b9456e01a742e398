// Package core is the experiment layer of the reproduction: it assembles
// the paper's network scenarios (Figures 1, 2 and 9), deploys the chosen
// defense stack, runs the attacks, and regenerates every table and figure
// of the evaluation as typed rows and series.
package core

import (
	"slices"
	"time"

	"sdntamper/internal/cluster"
	"sdntamper/internal/controller"
	"sdntamper/internal/dataplane"
	"sdntamper/internal/link"
	"sdntamper/internal/netsim"
	"sdntamper/internal/sim"
)

// Scenario is an assembled network with its deployed defense stack.
type Scenario struct {
	Net *netsim.Network
	Def Defenses

	// Modules are the stack deployed on the network's controller, which
	// is replica 0 in a cluster.
	Modules

	// OOB is the attackers' side channel, when the scenario has one.
	OOB *link.Channel

	// stacks pairs each of the network's controllers with its modules:
	// the network's own controller first, then a cluster's replicas.
	stacks []stack
}

// stack is one controller and the modules deployed on it.
type stack struct {
	ctl *controller.Controller
	Modules
}

// Controller is a convenience accessor.
func (s *Scenario) Controller() *controller.Controller { return s.Net.Controller }

// Run advances the scenario's virtual clock.
func (s *Scenario) Run(d time.Duration) error { return s.Net.Run(d) }

// Host returns the named host.
func (s *Scenario) Host(name string) *dataplane.Host { return s.Net.Host(name) }

// AlertTotal sums the alerts every controller has raised.
func (s *Scenario) AlertTotal() int {
	total := 0
	for _, st := range s.stacks {
		total += len(st.ctl.Alerts())
	}
	return total
}

// alerts counts the alerts every controller raised for any of the
// reasons.
func (s *Scenario) alerts(reasons []string) int {
	total := 0
	for _, st := range s.stacks {
		for _, r := range reasons {
			total += len(st.ctl.AlertsByReason(r))
		}
	}
	return total
}

// Deployed returns the modules deployed on each of the scenario's
// controllers, the network's own first.
func (s *Scenario) Deployed() []Modules {
	out := make([]Modules, len(s.stacks))
	for i, st := range s.stacks {
		out[i] = st.Modules
	}
	return out
}

// Close stops every controller's defense tickers, the controllers and
// the network.
func (s *Scenario) Close() {
	for i, st := range s.stacks {
		st.Stop()
		if i > 0 { // the network shuts its own controller down
			st.ctl.Shutdown()
		}
	}
	s.Net.Shutdown()
}

// scenarioOptions builds the stack's controller options for one
// scenario network.
func scenarioOptions(def Defenses) []controller.Option {
	opts, err := def.ControllerOptions(LLDPSecret)
	if err != nil {
		// Key derivation from a fixed secret cannot fail.
		panic(err)
	}
	return opts
}

// newScenario creates a network with the caller's controller options
// and then the stack's.
func newScenario(seed int64, def Defenses, extra ...controller.Option) *Scenario {
	return &Scenario{Net: netsim.New(seed, slices.Concat(extra, scenarioOptions(def))...), Def: def}
}

// deploy deploys the stack on the network's controller. Call after
// switches are added so module tickers observe a populated network.
func (s *Scenario) deploy() { s.deployOn(s.Net.Controller, nil) }

// deployOn deploys the stack on one of the network's controllers,
// wired to its cluster replica r when r is not nil.
func (s *Scenario) deployOn(ctl *controller.Controller, r *cluster.Replica) {
	m := s.Def.Deploy(ctl, r)
	if len(s.stacks) == 0 {
		s.Modules = m
	}
	s.stacks = append(s.stacks, stack{ctl, m})
}

// Host link latency used in the evaluation testbed (all dataplane links
// are 5 ms in Figure 9).
func testbedHostLink() sim.Sampler {
	return sim.Normal{Mean: 5 * time.Millisecond, Std: 200 * time.Microsecond, Min: 4 * time.Millisecond}
}

// OOBLatency is the attackers' side-channel latency in Figure 9 (10 ms).
func OOBLatency() sim.Sampler {
	return sim.Normal{Mean: 10 * time.Millisecond, Std: 500 * time.Microsecond, Min: 8 * time.Millisecond}
}

// Fig1 well-known element names.
const (
	HostAttackerA = "attackerA"
	HostAttackerB = "attackerB"
	HostClient    = "client"
	HostServer    = "server"
	HostVictim    = "victim"
	HostZombie    = "zombie"
)

// NewFig1Scenario builds the Figure 1 link-fabrication setting: two
// switches with no physical trunk; the colluding hosts' fabricated link
// would be the only switch-switch path. A client and server provide
// victim traffic to man-in-the-middle.
//
// Layout: s0x1[p1=attackerA p2=client], s0x2[p1=attackerB p2=server],
// out-of-band channel attackerA <-> attackerB.
func NewFig1Scenario(seed int64, def Defenses, ctlOpts ...controller.Option) *Scenario {
	s := newScenario(seed, def, ctlOpts...)
	s.Net.AddSwitch(0x1, nil)
	s.Net.AddSwitch(0x2, nil)
	s.Net.AddHost(HostAttackerA, "aa:aa:aa:aa:aa:01", "10.0.0.11", 0x1, 1, testbedHostLink())
	s.Net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.1", 0x1, 2, testbedHostLink())
	s.Net.AddHost(HostAttackerB, "aa:aa:aa:aa:aa:02", "10.0.0.12", 0x2, 1, testbedHostLink())
	s.Net.AddHost(HostServer, "cc:cc:cc:cc:cc:02", "10.0.0.2", 0x2, 2, testbedHostLink(),
		dataplane.WithOpenTCPPorts(80))
	s.OOB = s.Net.AddOOBChannel(OOBLatency())
	s.deploy()
	return s
}

// FabricatedLinkAB is the link the Figure 1 attack fabricates (A-side
// port of switch 1 toward B-side port of switch 2).
func FabricatedLinkAB() controller.Link {
	return controller.Link{
		Src: controller.PortRef{DPID: 0x1, Port: 1},
		Dst: controller.PortRef{DPID: 0x2, Port: 1},
	}
}

// NewFig2Scenario builds the Figure 2 host-location hijacking setting:
// two switches joined by a trunk; the victim sits on switch 1 and will
// migrate to switch 2 port 4; the attacker sits on switch 2 port 5.
func NewFig2Scenario(seed int64, def Defenses, ctlOpts ...controller.Option) *Scenario {
	s := newScenario(seed, def, ctlOpts...)
	s.Net.AddSwitch(0x1, nil)
	s.Net.AddSwitch(0x2, nil)
	// A steady trunk: the paper's hijack analysis assumes minimal RTT
	// variance (micro-bursts are a property of the Figure 9 testbed).
	s.Net.AddTrunk(0x1, 3, 0x2, 3, sim.Normal{Mean: 5 * time.Millisecond, Std: 200 * time.Microsecond, Min: 4 * time.Millisecond})
	s.Net.AddHost(HostVictim, "aa:aa:aa:aa:aa:aa", "10.0.0.1", 0x1, 2, testbedHostLink(),
		dataplane.WithOpenTCPPorts(80))
	s.Net.AddHost(HostAttackerA, "bb:bb:bb:bb:bb:bb", "10.0.0.2", 0x2, 5, testbedHostLink())
	s.Net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.3", 0x1, 4, testbedHostLink())
	s.deploy()
	return s
}

// AttackerLocFig2 is the attacker's port in the Figure 2 scenario.
func AttackerLocFig2() controller.PortRef { return controller.PortRef{DPID: 0x2, Port: 5} }

// VictimNewLocFig2 is where the victim re-joins after migration.
func VictimNewLocFig2() controller.PortRef { return controller.PortRef{DPID: 0x2, Port: 4} }

// NewFig9Testbed builds the evaluation testbed of Figure 9: four switches
// in a line with 5 ms dataplane links, colluding hosts on the middle
// switches joined by a 10 ms out-of-band channel, and client/server
// endpoints on the outer switches.
func NewFig9Testbed(seed int64, def Defenses, ctlOpts ...controller.Option) *Scenario {
	s := newScenario(seed, def, ctlOpts...)
	addFig9Line(s.Net, nil)
	s.Net.AddHost(HostClient, "cc:cc:cc:cc:cc:01", "10.0.0.1", 1, 1, testbedHostLink())
	s.Net.AddHost(HostAttackerA, "aa:aa:aa:aa:aa:01", "10.0.0.11", 2, 1, testbedHostLink())
	s.Net.AddHost(HostAttackerB, "aa:aa:aa:aa:aa:02", "10.0.0.12", 3, 1, testbedHostLink())
	s.Net.AddHost(HostServer, "cc:cc:cc:cc:cc:02", "10.0.0.2", 4, 1, testbedHostLink(),
		dataplane.WithOpenTCPPorts(80))
	s.OOB = s.Net.AddOOBChannel(OOBLatency())
	s.deploy()
	return s
}

// addFig9Line adds the switches of the Figure 9 line, 1 to 4, and the
// three trunks joining them, (1,3)-(2,3), (2,4)-(3,4) and (3,3)-(4,3),
// with the given trunk latency (nil for the bursty Figure 9 default).
func addFig9Line(net *netsim.Network, trunkLatency sim.Sampler) {
	for dpid := uint64(1); dpid <= 4; dpid++ {
		net.AddSwitch(dpid, nil)
	}
	net.AddTrunk(1, 3, 2, 3, trunkLatency)
	net.AddTrunk(2, 4, 3, 4, trunkLatency)
	net.AddTrunk(3, 3, 4, 3, trunkLatency)
}

// NewChaosLine builds the chaos evaluation network: the Figure 9 line
// with the given trunk latency (nil for the bursty Figure 9 default),
// end hosts h1 and h2 on the outer switches, and TOPOGUARD+ over
// authenticated, timestamped LLDP. No attacker is present: every alert
// the defenses raise during a fault episode is a false positive.
func NewChaosLine(seed int64, trunkLatency sim.Sampler) *Scenario {
	s := newScenario(seed, TopoGuardPlus())
	addFig9Line(s.Net, trunkLatency)
	addChaosHosts(s.Net)
	s.deploy()
	return s
}

// addChaosHosts adds the chaos lines' end hosts, h1 on switch 1 and h2
// on switch 4, with the default host link latency.
func addChaosHosts(net *netsim.Network) {
	net.AddHost("h1", "cc:cc:cc:cc:cc:01", "10.0.0.1", 1, 1, nil)
	net.AddHost("h2", "cc:cc:cc:cc:cc:02", "10.0.0.2", 4, 1, nil,
		dataplane.WithOpenTCPPorts(80))
}

// FabricatedLinkFig9 is the link fabricated between the colluding hosts'
// ports in the Figure 9 testbed.
func FabricatedLinkFig9() controller.Link {
	return controller.Link{
		Src: controller.PortRef{DPID: 2, Port: 1},
		Dst: controller.PortRef{DPID: 3, Port: 1},
	}
}

// NewFatTreeScenario builds a k-ary fat-tree data center (Al-Fares et
// al.) under the selected defenses, with testbed-grade trunk and host
// link latencies. It is the scale setting for benchmarking discovery,
// reactive forwarding and defense overhead on topologies far larger than
// the paper's four-switch testbed: k=4 yields 20 switches and 16 hosts,
// k=8 yields 80 switches and 128 hosts.
func NewFatTreeScenario(seed int64, k int, def Defenses, ctlOpts ...controller.Option) (*Scenario, *netsim.FatTreeTopology) {
	return newScenario(seed, def, ctlOpts...).buildFatTree(k)
}

// NewShardedFatTreeScenario builds the NewFatTreeScenario fat-tree on a
// network with per-entity RNG streams split over the given shard count:
// controller and core tier on shard 0, pods dealt round-robin over the
// remaining shards. shards == 1 is the serial reference configuration;
// every shard count produces the same simulation (see
// TestShardedByteIdentical).
func NewShardedFatTreeScenario(seed int64, k, shards int, def Defenses, ctlOpts ...controller.Option) (*Scenario, *netsim.FatTreeTopology) {
	net := netsim.NewSharded(seed, shards, netsim.FatTreePartition(k, shards), slices.Concat(ctlOpts, scenarioOptions(def))...)
	return (&Scenario{Net: net, Def: def}).buildFatTree(k)
}

func (s *Scenario) buildFatTree(k int) (*Scenario, *netsim.FatTreeTopology) {
	topo := netsim.BuildFatTree(s.Net, k, netsim.TestbedTrunkLatency(), testbedHostLink())
	s.deploy()
	return s, topo
}
