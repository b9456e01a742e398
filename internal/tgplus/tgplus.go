// Package tgplus implements TOPOGUARD+, the paper's extension to TopoGuard
// (Section VI), as two controller security modules:
//
//   - the Control Message Monitor (CMM) detects in-band port amnesia: a
//     Port-Up or Port-Down arriving from a port involved in an in-flight
//     LLDP probe — either the probe's origin or (checked retroactively via
//     a control-message log) the receiving port — raises an alert and
//     blocks the link update;
//   - the Link Latency Inspector (LLI) detects out-of-band relaying: each
//     LLDP probe carries an encrypted departure timestamp, control-link
//     delays are measured with Packet-Out probes bounced back to the
//     controller (averaging the latest three), and a link whose inferred
//     latency exceeds Q3 + 3*IQR over a fixed-size window of verified
//     measurements is flagged and (optionally) blocked.
//
// Deploying TopoGuard + CMM + LLI together reproduces the paper's
// TOPOGUARD+ configuration.
package tgplus

import (
	"fmt"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/sim"
)

// Span-ID tags for the module's forensic annotation spans (distinct
// from the tags obs.Verdicts derives from the module names).
var (
	cmmSpanTag = trace.MixID('c', 'm', 'm')
	lliSpanTag = trace.MixID('l', 'l', 'i')
)

// Module name strings used in alerts (matching the Floodlight class whose
// log lines Figures 12 and 13 show).
const (
	cmmName = "TopoGuard+/CMM"
	lliName = "TopoGuard+/LLI"
)

// Alert reason codes raised by TopoGuard+.
const (
	// ReasonControlMessage flags Port-Up/Down during LLDP propagation.
	ReasonControlMessage = "anomalous-control-message-during-lldp-propagation"
	// ReasonAbnormalDelay flags a link whose latency exceeds the IQR bound.
	ReasonAbnormalDelay = "abnormal-delay-during-lldp-propagation"
)

// portEvent is one logged Port-Status occurrence.
type portEvent struct {
	at   time.Time
	loc  controller.PortRef
	down bool
}

// CMM is the Control Message Monitor.
type CMM struct {
	api      controller.API
	verdicts *obs.Verdicts
	log      []portEvent
	// retention bounds the control-message log; events older than this
	// can no longer fall inside any live LLDP propagation window.
	retention time.Duration
	traceSeq  uint64
}

// NewCMM creates a Control Message Monitor. The retention must exceed the
// longest plausible LLDP propagation time; the discovery interval is a
// safe bound and is used when zero is given.
func NewCMM(retention time.Duration) *CMM {
	return &CMM{retention: retention}
}

var (
	_ controller.SecurityModule     = (*CMM)(nil)
	_ controller.Binder             = (*CMM)(nil)
	_ controller.PortStatusObserver = (*CMM)(nil)
	_ controller.LinkApprover       = (*CMM)(nil)
)

// ModuleName implements controller.SecurityModule.
func (c *CMM) ModuleName() string { return cmmName }

// Bind implements controller.Binder.
func (c *CMM) Bind(api controller.API) {
	c.api = api
	c.verdicts = obs.NewVerdicts(api.Metrics(), cmmName)
	if c.retention <= 0 {
		c.retention = api.Profile().DiscoveryInterval
	}
}

// ObservePortStatus logs every port state change with its timestamp so the
// propagation-window check can be applied retroactively to the receiving
// port, whose identity is only known once the LLDP arrives.
func (c *CMM) ObservePortStatus(ev *controller.PortStatusEvent) {
	c.log = append(c.log, portEvent{at: ev.When, loc: ev.Loc(), down: ev.Down()})
	cutoff := ev.When.Add(-c.retention)
	trim := 0
	for trim < len(c.log) && c.log[trim].at.Before(cutoff) {
		trim++
	}
	c.log = c.log[trim:]
}

// ApproveLink applies the CMM check: any Port-Up/Down from the probe's
// origin or receiving port between LLDP generation and receipt indicates
// the profile-reset signature of in-band port amnesia.
func (c *CMM) ApproveLink(ev *controller.LinkEvent) bool {
	for _, pe := range c.log {
		// The window is strictly after emission: the controller itself
		// emits a fresh probe in the same instant it processes a Port-Up,
		// and that legitimate adjacency must not self-flag.
		if !pe.at.After(ev.SentAt) || pe.at.After(ev.ReceivedAt) {
			continue
		}
		if pe.loc == ev.Link.Src || pe.loc == ev.Link.Dst {
			kind := "Port-Up"
			if pe.down {
				kind = "Port-Down"
			}
			if tr := c.api.Metrics().Tracer(); tr != nil {
				// The forensic "smoking gun": a span covering the probe's
				// propagation window, annotated with the control message
				// that fell inside it, parented on the LLDP flight under
				// adjudication.
				c.traceSeq++
				tr.Emit(trace.Span{
					ID:     trace.MixID(uint64(trace.KindDefense), cmmSpanTag, c.traceSeq),
					Parent: tr.Current(),
					Start:  int64(ev.SentAt.Sub(sim.Epoch)),
					End:    int64(pe.at.Sub(sim.Epoch)),
					Kind:   trace.KindDefense, Name: "cmm.window",
					Entity: pe.loc.DPID, Port: pe.loc.Port,
					Detail: fmt.Sprintf("%s from %s inside propagation window", kind, pe.loc),
				})
			}
			c.verdicts.Block(ReasonControlMessage)
			c.api.RaiseAlert(cmmName, ReasonControlMessage,
				fmt.Sprintf("%s from %s during LLDP propagation for link %s", kind, pe.loc, ev.Link))
			return false
		}
	}
	c.verdicts.Pass()
	return true
}

// LatencySample is one LLI link-latency measurement, kept for the
// experiment harness (Figures 10, 11 and 13).
type LatencySample struct {
	At        time.Time
	Link      controller.Link
	Latency   time.Duration
	Threshold time.Duration // zero until the window has enough data
	Flagged   bool
}

// LLIConfig tunes the Link Latency Inspector.
type LLIConfig struct {
	// WindowSize is the fixed-size latency store per link (default 100).
	WindowSize int
	// IQRMultiplier is k in Q3 + k*IQR (the paper uses 3).
	IQRMultiplier float64
	// MinSamples gates enforcement until the store holds enough verified
	// measurements.
	MinSamples int
	// ControlSamples is how many recent control RTT measurements are
	// averaged (the paper uses the latest three, Section VI-D).
	ControlSamples int
	// ControlProbeInterval is how often control-link RTTs are refreshed.
	ControlProbeInterval time.Duration
	// ControlProbeTimeout bounds one control RTT measurement.
	ControlProbeTimeout time.Duration
	// BlockAnomalies drops flagged link updates from the topology (the
	// paper's "may optionally block the topology update").
	BlockAnomalies bool
}

// DefaultLLIConfig returns the paper's parameters.
func DefaultLLIConfig() LLIConfig {
	return LLIConfig{
		WindowSize:           100,
		IQRMultiplier:        3,
		MinSamples:           10,
		ControlSamples:       3,
		ControlProbeInterval: 2 * time.Second,
		ControlProbeTimeout:  2 * time.Second,
		BlockAnomalies:       true,
	}
}
