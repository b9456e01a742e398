package controller

import (
	"fmt"

	"sdntamper/internal/obs"
)

// Controller metric names. Labeled variants (per-module alert reasons)
// are derived from these bases at runtime.
const (
	MetricPacketIn      = "controller_packetin_total"
	MetricPacketInLLDP  = "controller_packetin_lldp_total"
	MetricLLDPSent      = "controller_lldp_sent_total"
	MetricFlowMods      = "controller_flowmod_total"
	MetricPacketOuts    = "controller_packetout_total"
	MetricFloods        = "controller_flood_total"
	MetricFloodFallback = "controller_flood_fallback_total"
	MetricHostJoins     = "controller_host_join_total"
	MetricHostMoves     = "controller_host_move_total"
	MetricLinksAdded    = "controller_link_add_total"
	MetricLinksRemoved  = "controller_link_remove_total"
	MetricAlerts        = "controller_alerts_total"
	MetricTopoHits      = "controller_topo_cache_hit_total"
	MetricTopoMisses    = "controller_topo_cache_miss_total"
	MetricTopoRebuilds  = "controller_topo_rebuild_total"
	MetricLLDPRTT       = "controller_lldp_rtt_seconds"

	// Switch control-channel lifecycle and probe-failure metrics, recorded
	// by the disconnect/reconnect path the chaos layer drives.
	MetricSwitchDisconnects = "controller_switch_disconnect_total"
	MetricSwitchReconnects  = "controller_switch_reconnect_total"
	MetricProbesFailed      = "controller_probe_failed_total"
	MetricHostsAgedOut      = "controller_host_aged_out_total"

	// Discovery-protocol metrics. The counters are labeled with the
	// active protocol ("ofdp" | "softdp") so load comparisons read
	// straight out of merged snapshots; the gauge tracks live sOFTDP
	// BFD sessions (zero under OFDP).
	MetricDiscoveryProbes = "discovery_probes_total"
	MetricDiscoveryBytes  = "discovery_bytes_total"
	MetricBFDSessions     = "softdp_bfd_sessions"
)

// ctlMetrics holds the controller's resolved metric handles. Hot paths
// increment through these pointers directly, so instrumentation costs one
// atomic-free add per event rather than a map lookup.
type ctlMetrics struct {
	reg *obs.Registry

	packetIn      *obs.Counter
	packetInLLDP  *obs.Counter
	lldpSent      *obs.Counter
	flowMods      *obs.Counter
	packetOuts    *obs.Counter
	floods        *obs.Counter
	floodFallback *obs.Counter
	hostJoins     *obs.Counter
	hostMoves     *obs.Counter
	linksAdded    *obs.Counter
	linksRemoved  *obs.Counter
	alerts        *obs.Counter
	topoHits      *obs.Counter
	topoMisses    *obs.Counter
	topoRebuilds  *obs.Counter
	lldpRTT       *obs.Histogram

	switchDisconnects *obs.Counter
	switchReconnects  *obs.Counter
	probesFailed      *obs.Counter
	hostsAgedOut      *obs.Counter

	// Discovery-protocol handles, bound by bindDiscovery once the
	// profile (and hence the protocol label) is known.
	discProbes  *obs.Counter
	discBytes   *obs.Counter
	bfdSessions *obs.Gauge

	// alertReasons caches the per-(module,reason) labeled counters so a
	// repeated alert (the paper's alert-flood attack raises thousands)
	// does not re-format its metric name every time.
	alertReasons map[alertKey]*obs.Counter
}

// alertKey keys the labeled alert counters without string concatenation.
type alertKey struct {
	module string
	reason string
}

func newCtlMetrics(reg *obs.Registry) ctlMetrics {
	return ctlMetrics{
		reg:           reg,
		packetIn:      reg.Counter(MetricPacketIn),
		packetInLLDP:  reg.Counter(MetricPacketInLLDP),
		lldpSent:      reg.Counter(MetricLLDPSent),
		flowMods:      reg.Counter(MetricFlowMods),
		packetOuts:    reg.Counter(MetricPacketOuts),
		floods:        reg.Counter(MetricFloods),
		floodFallback: reg.Counter(MetricFloodFallback),
		hostJoins:     reg.Counter(MetricHostJoins),
		hostMoves:     reg.Counter(MetricHostMoves),
		linksAdded:    reg.Counter(MetricLinksAdded),
		linksRemoved:  reg.Counter(MetricLinksRemoved),
		alerts:        reg.Counter(MetricAlerts),
		topoHits:      reg.Counter(MetricTopoHits),
		topoMisses:    reg.Counter(MetricTopoMisses),
		topoRebuilds:  reg.Counter(MetricTopoRebuilds),
		lldpRTT:       reg.HistogramWithBuckets(MetricLLDPRTT, obs.DefaultLatencyBuckets()),

		switchDisconnects: reg.Counter(MetricSwitchDisconnects),
		switchReconnects:  reg.Counter(MetricSwitchReconnects),
		probesFailed:      reg.Counter(MetricProbesFailed),
		hostsAgedOut:      reg.Counter(MetricHostsAgedOut),

		alertReasons: make(map[alertKey]*obs.Counter),
	}
}

// bindDiscovery resolves the protocol-labeled discovery handles. Called
// from New after options apply (the registry and profile are final by
// then), so the labeled names land in whatever registry the controller
// ends up recording into.
func (m *ctlMetrics) bindDiscovery(protocol string) {
	m.discProbes = m.reg.Counter(fmt.Sprintf("%s{protocol=%q}", MetricDiscoveryProbes, protocol))
	m.discBytes = m.reg.Counter(fmt.Sprintf("%s{protocol=%q}", MetricDiscoveryBytes, protocol))
	m.bfdSessions = m.reg.Gauge(MetricBFDSessions)
}

// DiscoveryStats reports the cumulative discovery probe emissions and
// LLDP payload bytes for whichever protocol the controller runs; load
// experiments read deltas of these around a measurement window.
func (c *Controller) DiscoveryStats() (probes, bytes uint64) {
	return c.m.discProbes.Value(), c.m.discBytes.Value()
}

// BFDSessionCount reports the live sOFTDP BFD session gauge (zero under
// OFDP).
func (c *Controller) BFDSessionCount() int64 { return c.m.bfdSessions.Value() }

// alertCounter returns (creating on first use) the labeled counter for one
// (module, reason) alert combination.
func (m *ctlMetrics) alertCounter(module, reason string) *obs.Counter {
	key := alertKey{module: module, reason: reason}
	if c, ok := m.alertReasons[key]; ok {
		return c
	}
	c := m.reg.Counter(fmt.Sprintf("%s{module=%q,reason=%q}", MetricAlerts, module, reason))
	m.alertReasons[key] = c
	return c
}
