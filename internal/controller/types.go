// Package controller implements the simulated SDN controller: an OpenFlow
// control core modeled on Floodlight, with a Link Discovery Service (LLDP
// probes on a per-profile interval), a Host Tracking Service (MAC/IP to
// switch-port bindings updated from Packet-In events), shortest-path
// forwarding, and an extension-point system through which the TopoGuard,
// SPHINX and TopoGuard+ security modules observe and veto control events.
package controller

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"sdntamper/internal/lldp"
	"sdntamper/internal/obs"
	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// DiscoveryProtocol selects the controller's link discovery machinery.
type DiscoveryProtocol uint8

const (
	// DiscoveryOFDP is the classic periodic sweep: one LLDP probe per up
	// port every DiscoveryInterval, links evicted by the LinkTimeout
	// sweep. The zero value, so existing profiles are unchanged.
	DiscoveryOFDP DiscoveryProtocol = iota
	// DiscoverySOFTDP is event-driven discovery (sOFTDP, arXiv
	// 1705.04527): probes only on port-up / switch-connect / topology
	// events, per-link BFD sessions for liveness instead of the sweep.
	DiscoverySOFTDP
)

// String names the protocol as it appears in metric labels.
func (p DiscoveryProtocol) String() string {
	if p == DiscoverySOFTDP {
		return "softdp"
	}
	return "ofdp"
}

// Profile captures the per-controller link discovery timing constants the
// paper tabulates in Table III, plus the discovery-protocol selection.
type Profile struct {
	Name              string
	DiscoveryInterval time.Duration
	LinkTimeout       time.Duration

	// Discovery selects the discovery machinery (default OFDP sweep).
	Discovery DiscoveryProtocol
	// DiscoveryStagger spreads each OFDP round's per-port burst across
	// the interval with deterministic per-port offsets instead of
	// emitting every probe at the same virtual instant. Opt-in: the
	// paper figures depend on the default synchronized burst.
	DiscoveryStagger bool
}

// Controller profiles from Table III.
var (
	Floodlight   = Profile{Name: "Floodlight", DiscoveryInterval: 15 * time.Second, LinkTimeout: 35 * time.Second}
	POX          = Profile{Name: "POX", DiscoveryInterval: 5 * time.Second, LinkTimeout: 10 * time.Second}
	OpenDaylight = Profile{Name: "OpenDaylight", DiscoveryInterval: 5 * time.Second, LinkTimeout: 15 * time.Second}
)

// Profiles lists the built-in controller profiles in Table III order.
func Profiles() []Profile { return []Profile{Floodlight, POX, OpenDaylight} }

// PortRef names one switch port globally.
type PortRef struct {
	DPID uint64
	Port uint32
}

// String renders the reference as dpid:port.
func (p PortRef) String() string { return string(p.appendTo(make([]byte, 0, 32))) }

// appendTo appends String's rendering to b.
func (p PortRef) appendTo(b []byte) []byte {
	b = append(b, "0x"...)
	b = strconv.AppendUint(b, p.DPID, 16)
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(p.Port), 10)
}

// Link is a directed switch-to-switch link inferred from LLDP.
type Link struct {
	Src PortRef
	Dst PortRef
}

// String renders the link for traces and alerts.
func (l Link) String() string { return string(l.appendTo(make([]byte, 0, 64))) }

// appendTo appends String's rendering to b.
func (l Link) appendTo(b []byte) []byte {
	b = l.Src.appendTo(b)
	b = append(b, "->"...)
	return l.Dst.appendTo(b)
}

// Reverse returns the link with endpoints swapped.
func (l Link) Reverse() Link { return Link{Src: l.Dst, Dst: l.Src} }

// HostEntry is the Host Tracking Service's record for one end host.
type HostEntry struct {
	MAC       packet.MAC
	IP        packet.IPv4Addr
	Loc       PortRef
	FirstSeen time.Time
	LastSeen  time.Time
}

// Alert is a security notification raised by the controller or one of its
// security modules. Alerts inform the operator; they do not by themselves
// change network state — a property the paper's alert-flood attack leans on.
type Alert struct {
	At     time.Time
	Module string
	Reason string
	Detail string
}

// String renders the alert in log form, shaped after the Floodlight log
// lines in Figures 12 and 13.
func (a Alert) String() string {
	return fmt.Sprintf("%s ERROR [%s] %s: %s", a.At.Format("15:04:05.000"), a.Module, a.Reason, a.Detail)
}

// PacketInEvent is the decoded context of one Packet-In.
type PacketInEvent struct {
	DPID   uint64
	InPort uint32
	Reason uint8
	// Data is the punted frame. It aliases the delivered control message,
	// so it is valid only while the event is dispatched: a module that
	// keeps bytes copies them.
	Data   []byte
	Eth    *packet.Ethernet
	Fields openflow.Fields
	IsLLDP bool
	LLDP   *lldp.Frame
	When   time.Time
}

// Loc returns the ingress port reference.
func (e *PacketInEvent) Loc() PortRef { return PortRef{DPID: e.DPID, Port: e.InPort} }

// PortStatusEvent is the decoded context of one Port-Status.
type PortStatusEvent struct {
	DPID   uint64
	Status *openflow.PortStatus
	When   time.Time
}

// Loc returns the affected port reference.
func (e *PortStatusEvent) Loc() PortRef { return PortRef{DPID: e.DPID, Port: e.Status.Desc.No} }

// Down reports whether the event is a Port-Down.
func (e *PortStatusEvent) Down() bool { return !e.Status.Desc.Up }

// LinkEvent is raised when link discovery is about to accept an LLDP round
// trip as evidence of a link.
type LinkEvent struct {
	Link  Link
	Frame *lldp.Frame
	// SentAt is the controller's emission time for this probe, recovered
	// from the encrypted timestamp TLV when present, else from the pending
	// probe table.
	SentAt time.Time
	// ReceivedAt is the Packet-In arrival time.
	ReceivedAt time.Time
	// IsNew reports whether the link is absent from the current topology.
	IsNew bool
}

// LLDPSendEvent is raised for each LLDP probe the controller emits.
type LLDPSendEvent struct {
	Origin PortRef
	SentAt time.Time
}

// HostMoveEvent is raised when the Host Tracking Service is about to admit
// a new host or update an existing host's location.
type HostMoveEvent struct {
	MAC packet.MAC
	IP  packet.IPv4Addr
	Old PortRef
	New PortRef
	// OldSeen is when the host was last observed at Old.
	OldSeen time.Time
	// IsNew reports a first join rather than a migration.
	IsNew bool
	When  time.Time
}

// SecurityModule is the base interface for pluggable defense modules.
// Modules additionally implement any of the hook interfaces below; the
// controller type-switches at registration.
type SecurityModule interface {
	// ModuleName identifies the module in alerts.
	ModuleName() string
}

// Binder is implemented by modules that need controller services.
type Binder interface {
	Bind(api API)
}

// PacketInInterceptor sees every Packet-In before core processing.
// Returning false drops the event entirely. The event and the Eth and
// LLDP headers it points at are valid only during the call: the
// controller reuses them for the next Packet-In, so a module copies what
// it keeps.
type PacketInInterceptor interface {
	InterceptPacketIn(ev *PacketInEvent) bool
}

// PortStatusObserver sees every Port-Status event.
type PortStatusObserver interface {
	ObservePortStatus(ev *PortStatusEvent)
}

// LinkApprover can veto a link update before it enters the topology. Like
// every event below, a LinkEvent is valid only during the call.
type LinkApprover interface {
	ApproveLink(ev *LinkEvent) bool
}

// LinkObserver sees link updates after acceptance.
type LinkObserver interface {
	ObserveLink(ev *LinkEvent)
}

// HostMoveApprover can veto a host join or migration.
type HostMoveApprover interface {
	ApproveHostMove(ev *HostMoveEvent) bool
}

// HostMoveObserver sees host joins and migrations after they commit to the
// Host Tracking Service. Experiment harnesses use it to timestamp the
// instant the controller "acknowledges the attacker as the victim".
type HostMoveObserver interface {
	ObserveHostMove(ev *HostMoveEvent)
}

// LLDPSendObserver sees each LLDP probe emission. The event is valid only
// during the call.
type LLDPSendObserver interface {
	ObserveLLDPSend(ev *LLDPSendEvent)
}

// LinkRemovalObserver sees every link eviction after it commits, with the
// eviction reason ("timeout", "port-down", "switch-down", "api", ...).
// Cluster replication uses it to mirror topology deletions into peer
// replicas' shared log.
type LinkRemovalObserver interface {
	ObserveLinkRemoved(l Link, reason string)
}

// FlowModObserver sees every FlowMod the controller pushes; SPHINX treats
// these as the trusted statement of intended network state.
type FlowModObserver interface {
	ObserveFlowMod(dpid uint64, fm *openflow.FlowMod)
}

// SwitchObserver sees switch control-channel lifecycle transitions:
// ObserveSwitchDisconnect when a control connection is torn down, and
// ObserveSwitchConnect when a switch (re)completes the Features handshake.
// The LLI uses these to discard control-latency estimates that straddle a
// disconnect, which would otherwise poison its per-link baselines.
type SwitchObserver interface {
	ObserveSwitchDisconnect(dpid uint64)
	ObserveSwitchConnect(dpid uint64)
}

// API is the controller surface exposed to security modules.
type API interface {
	// Now reports current virtual time.
	Now() time.Time
	// Schedule runs fn after d on the controller's kernel.
	Schedule(d time.Duration, fn func()) sim.Event
	// Rand exposes the deterministic simulation RNG.
	Rand() *rand.Rand
	// RaiseAlert records a security alert.
	RaiseAlert(module, reason, detail string)
	// ProbeHost pings (mac, ip) at loc via Packet-Out and reports whether
	// a reply returned before the timeout. TopoGuard's host-migration
	// post-condition check uses it.
	ProbeHost(loc PortRef, mac packet.MAC, ip packet.IPv4Addr, timeout time.Duration, cb func(alive bool))
	// MeasureControlRTT measures the control-link round trip to a switch
	// using a Packet-Out probe bounced back by an output-to-controller
	// action, as TopoGuard+'s LLI specifies.
	MeasureControlRTT(dpid uint64, timeout time.Duration, cb func(rtt time.Duration, ok bool))
	// RequestFlowStats polls one switch's flow counters.
	RequestFlowStats(dpid uint64, cb func([]openflow.FlowStats))
	// RequestPortStats polls one switch's port counters.
	RequestPortStats(dpid uint64, cb func([]openflow.PortStats))
	// RequestPortStatsFor polls one port's counters (openflow.PortNone =
	// all ports). cb(nil) means no answer (unknown dpid, disconnect, or
	// timeout); an empty non-nil slice is the switch's authoritative
	// "no such port" reply.
	RequestPortStatsFor(dpid uint64, portNo uint32, cb func([]openflow.PortStats))
	// PushFlowMod installs or removes a flow entry on a switch through
	// the controller's logged FlowMod path (no-op for unknown dpid).
	// Rate-based defenses use it for auto-block drop rules.
	PushFlowMod(dpid uint64, fm *openflow.FlowMod)
	// Keychain exposes the controller LLDP keys (nil if signing disabled).
	Keychain() *lldp.Keychain
	// Metrics exposes the controller's observability registry. Modules
	// register their own counters and histograms here so one snapshot
	// covers the whole control plane.
	Metrics() *obs.Registry
	// Links snapshots the current topology.
	Links() []Link
	// LinkPorts reports the set of ports currently acting as link
	// endpoints. The map is shared and must not be modified.
	LinkPorts() map[PortRef]bool
	// HostByMAC looks up a host tracking entry.
	HostByMAC(mac packet.MAC) (HostEntry, bool)
	// RestoreHostLocation rebinds a host to a location; defenses use it to
	// roll back a hijacked binding.
	RestoreHostLocation(mac packet.MAC, loc PortRef)
	// RemoveLink evicts a link from the topology (LLI's optional blocking
	// response).
	RemoveLink(l Link)
	// Profile reports the active controller timing profile.
	Profile() Profile
	// Switches lists the datapath ids of connected switches in ascending
	// order. The slice is read-only: the controller may hand the same one
	// to every caller until a switch connects or disconnects, and then
	// builds a new one, so a held slice keeps its contents.
	Switches() []uint64
}
