// Package ids implements the network intrusion detection surrogate used
// in Section V-B2: a Snort-style sensor loaded with scan-detection rules
// modeled on the Proofpoint / Emerging Threats ruleset the paper used.
// Two properties matter for the reproduction:
//
//   - TCP SYN scans are detected above 2 scans per second;
//   - no rule exists for ARP scans (neither Snort nor Bro ships one), so
//     ARP liveness probes at the paper's 1-per-50ms rate pass unseen.
package ids

import (
	"fmt"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// Alert is one IDS rule firing.
type Alert struct {
	At     time.Time
	Rule   string
	Source packet.IPv4Addr
	Detail string
}

// Rule inspects frames and reports alerts.
type Rule interface {
	// RuleName identifies the rule in alerts.
	RuleName() string
	// Observe inspects one frame; non-empty detail raises an alert.
	Observe(now time.Time, eth *packet.Ethernet) (src packet.IPv4Addr, detail string)
}

// Sensor is a passive monitor attached to a host's link.
type Sensor struct {
	kernel *sim.Kernel
	rules  []Rule
	alerts []Alert
	frames uint64
}

// NewSensor creates a sensor with the given rules; with none, the default
// Emerging Threats-style set is loaded.
func NewSensor(kernel *sim.Kernel, rules ...Rule) *Sensor {
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	return &Sensor{kernel: kernel, rules: rules}
}

// DefaultRules returns the surrogate ET ruleset: SYN-scan and ping-sweep
// detection. Deliberately absent: any ARP-scan rule.
func DefaultRules() []Rule {
	return []Rule{
		NewSYNScanRule(2, time.Second),
		NewPingSweepRule(2, time.Second),
	}
}

// DetectsARPScans reports whether any loaded rule inspects ARP — the
// paper's point is that standard rulesets do not.
func (s *Sensor) DetectsARPScans() bool {
	for _, r := range s.rules {
		if _, ok := r.(*arpRule); ok {
			return true
		}
	}
	return false
}

// Inspect feeds one raw frame to every rule.
func (s *Sensor) Inspect(raw []byte) {
	s.frames++
	eth, err := packet.UnmarshalEthernet(raw)
	if err != nil {
		return
	}
	now := s.kernel.Now()
	for _, r := range s.rules {
		if src, detail := r.Observe(now, eth); detail != "" {
			s.alerts = append(s.alerts, Alert{At: now, Rule: r.RuleName(), Source: src, Detail: detail})
		}
	}
}

// TapHost interposes the sensor on a host's receive path, preserving any
// existing hook (the sensor observes; it never consumes).
func (s *Sensor) TapHost(h *dataplane.Host) {
	prev := h.OnFrame
	h.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		s.Inspect(raw)
		if prev != nil {
			return prev(eth, raw)
		}
		return false
	}
}

// Alerts snapshots the alerts raised so far.
func (s *Sensor) Alerts() []Alert {
	out := make([]Alert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// AlertsByRule counts alerts from one rule.
func (s *Sensor) AlertsByRule(name string) int {
	n := 0
	for _, a := range s.alerts {
		if a.Rule == name {
			n++
		}
	}
	return n
}

// Frames reports total frames inspected.
func (s *Sensor) Frames() uint64 { return s.frames }

// rateTracker counts events per source within a sliding window.
type rateTracker struct {
	window time.Duration
	seen   map[packet.IPv4Addr][]time.Time
}

func newRateTracker(window time.Duration) *rateTracker {
	return &rateTracker{window: window, seen: make(map[packet.IPv4Addr][]time.Time)}
}

// add records an event and returns the count within the window.
func (rt *rateTracker) add(src packet.IPv4Addr, now time.Time) int {
	events := rt.seen[src]
	cutoff := now.Add(-rt.window)
	// Half-open window (cutoff, now]: an event exactly one window ago has
	// aged out, so a steady rate of exactly threshold/window never fires.
	trim := 0
	for trim < len(events) && !events[trim].After(cutoff) {
		trim++
	}
	events = append(events[trim:], now)
	rt.seen[src] = events
	return len(events)
}

// SYNScanRule flags sources emitting bare SYNs above a rate threshold,
// modeled on the ET SCAN rules that caught the paper's SYN probes above 2
// scans per second.
type SYNScanRule struct {
	threshold int
	tracker   *rateTracker
}

// NewSYNScanRule creates the rule: alert when a source exceeds threshold
// SYNs within the window.
func NewSYNScanRule(threshold int, window time.Duration) *SYNScanRule {
	return &SYNScanRule{threshold: threshold, tracker: newRateTracker(window)}
}

var _ Rule = (*SYNScanRule)(nil)

// RuleName implements Rule.
func (r *SYNScanRule) RuleName() string { return "ET SCAN Suspicious inbound SYN" }

// Observe implements Rule.
func (r *SYNScanRule) Observe(now time.Time, eth *packet.Ethernet) (packet.IPv4Addr, string) {
	if eth.Type != packet.EtherTypeIPv4 {
		return packet.IPv4Addr{}, ""
	}
	ip, err := packet.UnmarshalIPv4(eth.Payload)
	if err != nil || ip.Protocol != packet.ProtoTCP {
		return packet.IPv4Addr{}, ""
	}
	seg, err := packet.UnmarshalTCP(ip.Payload)
	if err != nil || !seg.Flags.Has(packet.TCPSyn) || seg.Flags.Has(packet.TCPAck) {
		return packet.IPv4Addr{}, ""
	}
	if n := r.tracker.add(ip.Src, now); n > r.threshold {
		return ip.Src, fmt.Sprintf("%d SYNs within %s from %s", n, r.tracker.window, ip.Src)
	}
	return packet.IPv4Addr{}, ""
}

// PingSweepRule flags sources emitting ICMP echo requests above a rate
// threshold.
type PingSweepRule struct {
	threshold int
	tracker   *rateTracker
}

// NewPingSweepRule creates the rule.
func NewPingSweepRule(threshold int, window time.Duration) *PingSweepRule {
	return &PingSweepRule{threshold: threshold, tracker: newRateTracker(window)}
}

var _ Rule = (*PingSweepRule)(nil)

// RuleName implements Rule.
func (r *PingSweepRule) RuleName() string { return "ET SCAN ICMP ping sweep" }

// Observe implements Rule.
func (r *PingSweepRule) Observe(now time.Time, eth *packet.Ethernet) (packet.IPv4Addr, string) {
	if eth.Type != packet.EtherTypeIPv4 {
		return packet.IPv4Addr{}, ""
	}
	ip, err := packet.UnmarshalIPv4(eth.Payload)
	if err != nil || ip.Protocol != packet.ProtoICMP {
		return packet.IPv4Addr{}, ""
	}
	m, err := packet.UnmarshalICMP(ip.Payload)
	if err != nil || m.Type != packet.ICMPEchoRequest {
		return packet.IPv4Addr{}, ""
	}
	if n := r.tracker.add(ip.Src, now); n > r.threshold {
		return ip.Src, fmt.Sprintf("%d echo requests within %s from %s", n, r.tracker.window, ip.Src)
	}
	return packet.IPv4Addr{}, ""
}

// arpRule exists only so tests can demonstrate what detection WOULD
// require; DefaultRules never includes it, matching the ruleset gap the
// paper exploits.
type arpRule struct {
	threshold int
	tracker   *rateTracker
}

// NewExperimentalARPRule builds an ARP-rate rule that real rulesets lack.
func NewExperimentalARPRule(threshold int, window time.Duration) Rule {
	return &arpRule{threshold: threshold, tracker: newRateTracker(window)}
}

// RuleName implements Rule.
func (r *arpRule) RuleName() string { return "EXPERIMENTAL ARP request rate" }

// Observe implements Rule.
func (r *arpRule) Observe(now time.Time, eth *packet.Ethernet) (packet.IPv4Addr, string) {
	if eth.Type != packet.EtherTypeARP {
		return packet.IPv4Addr{}, ""
	}
	arp, err := packet.DecodeARP(eth.Payload)
	if err != nil || arp.Op != packet.ARPRequest {
		return packet.IPv4Addr{}, ""
	}
	if n := r.tracker.add(arp.SenderIP, now); n > r.threshold {
		return arp.SenderIP, fmt.Sprintf("%d ARP requests within %s", n, r.tracker.window)
	}
	return packet.IPv4Addr{}, ""
}
