// Package sphinx implements a surrogate of SPHINX (Dhawan et al., NDSS
// 2015), the anomaly-detecting defense the paper evaluates alongside
// TopoGuard. Like the paper's authors — who could not obtain the original
// implementation and rebuilt its invariant checks — this module implements
// the identifier-binding and flow-consistency invariants from the SPHINX
// paper's Tables 3 and 4, driven from Packet-In events, trusted Flow-Mods,
// and periodic switch counter polls:
//
//   - the same MAC simultaneously bound to multiple switch ports;
//   - the same IP claimed by multiple MACs within a short window;
//   - endpoint changes to an existing link (new links are implicitly
//     trusted, a property the fabricated-link attacks rely on);
//   - per-flow byte-count divergence across the waypoints named by
//     Flow-Mods (a faithfully forwarding man-in-the-middle shows no
//     divergence; a packet-dropping one does).
//
// SPHINX never blocks updates: it raises alerts for an operator.
package sphinx

import (
	"fmt"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/obs"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// Alert reason codes raised by this module.
const (
	ReasonMultiBinding     = "identifier-bound-to-multiple-ports"
	ReasonIPMACConflict    = "ip-claimed-by-multiple-macs"
	ReasonLinkChanged      = "existing-link-endpoints-changed"
	ReasonFlowInconsistent = "flow-byte-counts-diverge"
)

const moduleName = "SPHINX"

// Config tunes the surrogate's detection thresholds.
type Config struct {
	// BindingWindow is how recently a binding must have been confirmed at
	// one port for a claim from another port to count as simultaneous.
	BindingWindow time.Duration
	// PollInterval is the switch counter polling period.
	PollInterval time.Duration
	// ByteSlack is the absolute flow byte divergence tolerated between
	// waypoints (covers in-flight packets).
	ByteSlack uint64
	// RatioSlack is the relative divergence tolerated.
	RatioSlack float64
}

// DefaultConfig returns the thresholds used in the evaluation.
func DefaultConfig() Config {
	return Config{
		BindingWindow: 5 * time.Second,
		PollInterval:  5 * time.Second,
		ByteSlack:     2048,
		RatioSlack:    0.25,
	}
}

type binding struct {
	loc      controller.PortRef
	lastSeen time.Time
}

// Sphinx is the security module. Register it on a controller and call
// Start to begin counter polling.
type Sphinx struct {
	api      controller.API
	cfg      Config
	verdicts *obs.Verdicts

	macs    map[packet.MAC]*binding
	ips     map[packet.IPv4Addr]packet.MAC
	ipsSeen map[packet.IPv4Addr]time.Time
	links   map[controller.PortRef]controller.PortRef

	// flowWaypoints maps a destination MAC (the controller's flow
	// granularity) to the switches expected to carry it, learned from
	// trusted Flow-Mods.
	flowWaypoints map[packet.MAC]map[uint64]bool

	pollEvent sim.Event
	started   bool
}

// New creates a SPHINX surrogate with the given configuration.
func New(cfg Config) *Sphinx {
	return &Sphinx{
		cfg:           cfg,
		macs:          make(map[packet.MAC]*binding),
		ips:           make(map[packet.IPv4Addr]packet.MAC),
		ipsSeen:       make(map[packet.IPv4Addr]time.Time),
		links:         make(map[controller.PortRef]controller.PortRef),
		flowWaypoints: make(map[packet.MAC]map[uint64]bool),
	}
}

var (
	_ controller.SecurityModule      = (*Sphinx)(nil)
	_ controller.Binder              = (*Sphinx)(nil)
	_ controller.PacketInInterceptor = (*Sphinx)(nil)
	_ controller.LinkObserver        = (*Sphinx)(nil)
	_ controller.FlowModObserver     = (*Sphinx)(nil)
	_ controller.PortStatusObserver  = (*Sphinx)(nil)
)

// ModuleName implements controller.SecurityModule.
func (s *Sphinx) ModuleName() string { return moduleName }

// Bind implements controller.Binder.
func (s *Sphinx) Bind(api controller.API) {
	s.api = api
	s.verdicts = obs.NewVerdicts(api.Metrics(), moduleName)
}

// Start begins periodic switch counter polling. Call after the network is
// assembled; Stop halts it.
func (s *Sphinx) Start() {
	if s.started || s.api == nil {
		return
	}
	s.started = true
	s.scheduleNextPoll()
}

func (s *Sphinx) scheduleNextPoll() {
	s.pollEvent = s.api.Schedule(s.cfg.PollInterval, func() {
		if !s.started {
			return
		}
		s.CheckFlowConsistency(nil)
		s.scheduleNextPoll()
	})
}

// Stop halts counter polling.
func (s *Sphinx) Stop() {
	s.started = false
	s.pollEvent.Cancel()
}

// InterceptPacketIn implements the identifier-binding invariants. SPHINX
// observes but never blocks, so it always returns true.
func (s *Sphinx) InterceptPacketIn(ev *controller.PacketInEvent) bool {
	if ev.IsLLDP {
		return true
	}
	src := ev.Eth.Src
	if src.IsZero() || src.IsBroadcast() {
		return true
	}
	loc := ev.Loc()
	if s.api.LinkPorts()[loc] {
		return true // transit traffic carries remote bindings legitimately
	}
	now := ev.When
	if b, ok := s.macs[src]; ok && b.loc != loc {
		if now.Sub(b.lastSeen) < s.cfg.BindingWindow {
			s.verdicts.Flag(ReasonMultiBinding)
			s.api.RaiseAlert(moduleName, ReasonMultiBinding,
				fmt.Sprintf("MAC %s active at %s and %s within %s", src, b.loc, loc, s.cfg.BindingWindow))
		}
		b.loc = loc
		b.lastSeen = now
	} else if ok {
		b.lastSeen = now
	} else {
		s.macs[src] = &binding{loc: loc, lastSeen: now}
	}

	ip := ev.Fields.IPSrc
	if ev.Eth.Type == packet.EtherTypeARP {
		if arp, err := packet.DecodeARP(ev.Eth.Payload); err == nil {
			ip = arp.SenderIP
		}
	}
	if !ip.IsZero() {
		if owner, ok := s.ips[ip]; ok && owner != src {
			if seen, ok2 := s.ipsSeen[ip]; ok2 && now.Sub(seen) < s.cfg.BindingWindow {
				s.verdicts.Flag(ReasonIPMACConflict)
				s.api.RaiseAlert(moduleName, ReasonIPMACConflict,
					fmt.Sprintf("IP %s claimed by %s while bound to %s", ip, src, owner))
			}
		}
		s.ips[ip] = src
		s.ipsSeen[ip] = now
	}
	s.verdicts.Pass()
	return true
}

// ObserveLink trusts new links but alerts when an existing source port
// suddenly points at a different destination.
func (s *Sphinx) ObserveLink(ev *controller.LinkEvent) {
	prev, ok := s.links[ev.Link.Src]
	if ok && prev != ev.Link.Dst {
		s.verdicts.Flag(ReasonLinkChanged)
		s.api.RaiseAlert(moduleName, ReasonLinkChanged,
			fmt.Sprintf("link from %s moved %s -> %s", ev.Link.Src, prev, ev.Link.Dst))
	}
	s.links[ev.Link.Src] = ev.Link.Dst
}

// ObservePortStatus forgets bindings whose port went down so that a
// legitimate later move is not misread as a simultaneous binding.
func (s *Sphinx) ObservePortStatus(ev *controller.PortStatusEvent) {
	if !ev.Down() {
		return
	}
	loc := ev.Loc()
	for _, b := range s.macs {
		if b.loc == loc {
			// Age the binding out immediately: the port is gone.
			b.lastSeen = ev.When.Add(-s.cfg.BindingWindow)
		}
	}
	delete(s.links, loc)
}

// ObserveFlowMod learns the trusted waypoint set for each destination.
func (s *Sphinx) ObserveFlowMod(dpid uint64, fm *openflow.FlowMod) {
	if fm.Command != openflow.FlowAdd {
		return
	}
	if fm.Match.Wildcards.Has(openflow.WildEthDst) {
		return
	}
	dst := fm.Match.Fields.EthDst
	if s.flowWaypoints[dst] == nil {
		s.flowWaypoints[dst] = make(map[uint64]bool)
	}
	s.flowWaypoints[dst][dpid] = true
}

// CheckFlowConsistency polls every switch once and compares per-flow byte
// counters across waypoints; call it from a ticker or a test. The done
// callback fires after all replies are in (or immediately if there is
// nothing to poll).
func (s *Sphinx) CheckFlowConsistency(done func()) {
	switches := s.api.Switches()
	if len(switches) == 0 {
		if done != nil {
			done()
		}
		return
	}
	results := make(map[uint64][]openflow.FlowStats, len(switches))
	remaining := len(switches)
	for _, dpid := range switches {
		dpid := dpid
		s.api.RequestFlowStats(dpid, func(fs []openflow.FlowStats) {
			results[dpid] = fs
			remaining--
			if remaining == 0 {
				s.compareWaypoints(results)
				if done != nil {
					done()
				}
			}
		})
	}
}

func (s *Sphinx) compareWaypoints(results map[uint64][]openflow.FlowStats) {
	for dst, waypoints := range s.flowWaypoints {
		var minBytes, maxBytes uint64
		first := true
		count := 0
		for dpid := range waypoints {
			for _, fs := range results[dpid] {
				if fs.Match.Wildcards.Has(openflow.WildEthDst) || fs.Match.Fields.EthDst != dst {
					continue
				}
				count++
				if first {
					minBytes, maxBytes = fs.Bytes, fs.Bytes
					first = false
					continue
				}
				if fs.Bytes < minBytes {
					minBytes = fs.Bytes
				}
				if fs.Bytes > maxBytes {
					maxBytes = fs.Bytes
				}
			}
		}
		if count < 2 {
			continue
		}
		diff := maxBytes - minBytes
		if diff <= s.cfg.ByteSlack {
			continue
		}
		if maxBytes > 0 && float64(diff)/float64(maxBytes) <= s.cfg.RatioSlack {
			continue
		}
		s.verdicts.Flag(ReasonFlowInconsistent)
		s.api.RaiseAlert(moduleName, ReasonFlowInconsistent,
			fmt.Sprintf("flow to %s: waypoint byte counters diverge (min=%d max=%d)", dst, minBytes, maxBytes))
	}
}
