package dataplane

import (
	"fmt"
	"time"

	"sdntamper/internal/link"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/openflow"
	"sdntamper/internal/sim"
)

// Dataplane metric name bases; per-port counters carry dpid and port
// labels derived from these. Drop counters additionally carry a dir label
// ("rx" for frames refused at ingress, "tx" for frames refused at egress)
// so ingress and egress losses are distinguishable in /metrics.
//
// All byte counters are uint64 and wrap modulo 2^64, like OpenFlow 1.0
// port counters. Consumers computing rates MUST subtract consecutive
// samples in uint64 arithmetic (cur - prev), which yields the true delta
// as long as the counter wrapped at most once between polls; see
// ratemon.ByteRate for the reference implementation.
const (
	MetricFramesRx      = "dataplane_rx_frames_total"
	MetricFramesTx      = "dataplane_tx_frames_total"
	MetricFramesDropped = "dataplane_dropped_frames_total"
	MetricBytesRx       = "dataplane_rx_bytes_total"
	MetricBytesTx       = "dataplane_tx_bytes_total"
	MetricBytesDropped  = "dataplane_dropped_bytes_total"
)

// Link-pulse timing. IEEE 802.3 twisted-pair Ethernet defines a link
// integrity pulse of 16 +/- 8 ms; a transceiver silent for that interval
// is declared disconnected. The paper's in-band port amnesia attack waits
// out this interval to force a Port-Down (Section V-A).
const (
	// LinkPulseNominal is the nominal down-detection delay.
	LinkPulseNominal = 16 * time.Millisecond
	// LinkPulseJitter is the spec's tolerance around the nominal delay.
	LinkPulseJitter = 8 * time.Millisecond
	// linkUpDetect is how quickly a restored carrier is noticed (first
	// received pulse).
	linkUpDetect = 1 * time.Millisecond
)

// expiryCheckInterval is how often the switch sweeps for timed-out flows.
const expiryCheckInterval = time.Second

// Port is one switch dataplane port.
type Port struct {
	sw  *Switch
	no  uint32
	ep  *link.Endpoint
	up  bool // switch's post-detection view of link state
	det sim.Sampler

	pendingDown sim.Event
	pendingUp   sim.Event

	rxPackets uint64
	txPackets uint64

	// Byte totals live in the obs counters (mRxBytes/mTxBytes), which are
	// both the /metrics export and the backing store for OpenFlow port
	// stats replies — one increment site, no shadow accounting.
	mRx          *obs.Counter
	mTx          *obs.Counter
	mRxBytes     *obs.Counter
	mTxBytes     *obs.Counter
	mDropRx      *obs.Counter
	mDropTx      *obs.Counter
	mDropRxBytes *obs.Counter
	mDropTxBytes *obs.Counter
}

var _ link.Attachment = (*Port)(nil)

// No reports the port number.
func (p *Port) No() uint32 { return p.no }

// Up reports the switch's view of link state.
func (p *Port) Up() bool { return p.up }

// ReceiveFrame implements link.Attachment. The switch owns f from here:
// it forwards, punts or drops it (see Switch.handleFrame).
func (p *Port) ReceiveFrame(f *link.Frame) {
	if !p.up {
		p.mDropRx.Inc()
		p.mDropRxBytes.Add(uint64(len(f.Data)))
		f.Release()
		return
	}
	p.rxPackets++
	p.mRx.Inc()
	p.mRxBytes.Add(uint64(len(f.Data)))
	if p.sw.tracer != nil {
		p.traceFrame("port.rx", 0, p.rxPackets)
	}
	p.sw.handleFrame(p, f)
}

// traceFrame marks a frame's transit through this port when it belongs
// to a live traced chain. The span ID mixes the port's identity, the
// direction, and the port's own packet counter — all invariant under
// resharding. Frames outside any chain emit nothing, so the recorder
// never fills with background traffic.
func (p *Port) traceFrame(name string, dir, seq uint64) {
	tr := p.sw.tracer
	parent := tr.Current()
	if parent == 0 {
		return
	}
	now := tr.Now()
	id := trace.MixID(uint64(trace.KindData), p.sw.dpid, uint64(p.no), dir, seq)
	tr.Emit(trace.Span{
		ID: id, Parent: parent,
		Start: now, End: now,
		Kind: trace.KindData, Name: name,
		Entity: p.sw.dpid, Port: p.no,
	})
	tr.SetCurrent(id)
}

// CarrierChange implements link.Attachment: it runs the 802.3 link-pulse
// state machine. A carrier loss only becomes a Port-Down if it persists
// for the sampled pulse-detection interval; a loss cured faster than the
// interval is invisible to the switch (and hence to the controller), which
// is exactly the threshold the in-band attack must respect.
func (p *Port) CarrierChange(up bool) {
	if up {
		if p.pendingDown.Scheduled() {
			// Carrier restored before detection: nothing ever happened.
			p.pendingDown.Cancel()
			return
		}
		if !p.up && !p.pendingUp.Scheduled() {
			p.pendingUp = p.sw.kernel.Schedule(linkUpDetect, func() {
				p.up = true
				p.sw.sendPortStatus(p, openflow.PortReasonModify)
			})
		}
		return
	}
	p.pendingUp.Cancel()
	if p.up && !p.pendingDown.Scheduled() {
		p.pendingDown = p.sw.kernel.Schedule(p.det.Sample(p.sw.kernel.Rand()), func() {
			p.up = false
			p.sw.sendPortStatus(p, openflow.PortReasonModify)
		})
	}
}

// send forwards f out of the port without copying it, handing its
// ownership to the link; a port that is down releases it.
func (p *Port) send(f *link.Frame) {
	if !p.up {
		p.mDropTx.Inc()
		p.mDropTxBytes.Add(uint64(len(f.Data)))
		f.Release()
		return
	}
	p.txPackets++
	p.mTx.Inc()
	p.mTxBytes.Add(uint64(len(f.Data)))
	if p.sw.tracer != nil {
		p.traceFrame("port.tx", 1, p.txPackets)
	}
	p.ep.Send(f)
}

// Switch is an OpenFlow switch: ports, a flow table, and a control
// connection to the controller.
type Switch struct {
	kernel *sim.Kernel
	dpid   uint64
	ports  map[uint32]*Port
	order  []uint32 // stable port iteration order
	table  FlowTable
	xid    uint32

	sendControl func([]byte)
	handshook   bool
	expiry      *sim.Ticker
	metrics     *obs.Registry
	tracer      *trace.Recorder

	// txBuf is the control-plane transmit scratch buffer: every outgoing
	// OpenFlow message is marshaled into it in place, so steady-state
	// control traffic does not allocate per message. Safe because the
	// sender contract (SetControlSender) forbids retaining the buffer.
	txBuf []byte
	// packetIn is sendPacketIn's scratch, marshaled into txBuf as soon
	// as it is built.
	packetIn openflow.PacketIn
	// dec decodes each control message before the next one arrives.
	dec openflow.Decoder
}

// SwitchOption configures a Switch.
type SwitchOption func(*Switch)

// WithMetrics records per-port frame counters into reg. Without it the
// switch keeps a private registry, so the frame paths stay branch-free.
func WithMetrics(reg *obs.Registry) SwitchOption {
	return func(s *Switch) { s.metrics = reg }
}

// NewSwitch creates a switch with the given datapath id. Connect ports
// with AddPort and the controller with SetControlSender /HandleControl.
func NewSwitch(kernel *sim.Kernel, dpid uint64, opts ...SwitchOption) *Switch {
	s := &Switch{
		kernel: kernel,
		dpid:   dpid,
		ports:  make(map[uint32]*Port),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.expiry = kernel.NewTicker(expiryCheckInterval, func() {
		s.table.Expire(kernel.Now())
	})
	return s
}

// Shutdown stops the switch's background flow-expiry ticker.
func (s *Switch) Shutdown() { s.expiry.Stop() }

// SetTracer attaches the span recorder of the switch's shard. Frame
// paths emit port.rx/port.tx spans only for frames inside a traced
// causal chain; with no tracer the paths keep their zero-allocation,
// single-branch cost.
func (s *Switch) SetTracer(r *trace.Recorder) { s.tracer = r }

// DPID reports the datapath id.
func (s *Switch) DPID() uint64 { return s.dpid }

// Table exposes the flow table for inspection by tests and defenses that
// model switch-local sensors.
func (s *Switch) Table() *FlowTable { return &s.table }

// AddPort creates port number no attached to one end of l. The detection
// sampler governs 802.3 link-pulse down-detection latency; nil means the
// nominal constant 16 ms.
func (s *Switch) AddPort(no uint32, l *link.Link, end link.End, detect sim.Sampler) *Port {
	if detect == nil {
		detect = sim.Const(LinkPulseNominal)
	}
	p := &Port{sw: s, no: no, up: true, det: detect}
	labels := fmt.Sprintf("{dpid=\"0x%x\",port=\"%d\"}", s.dpid, no)
	labelsRx := fmt.Sprintf("{dpid=\"0x%x\",dir=\"rx\",port=\"%d\"}", s.dpid, no)
	labelsTx := fmt.Sprintf("{dpid=\"0x%x\",dir=\"tx\",port=\"%d\"}", s.dpid, no)
	p.mRx = s.metrics.Counter(MetricFramesRx + labels)
	p.mTx = s.metrics.Counter(MetricFramesTx + labels)
	p.mRxBytes = s.metrics.Counter(MetricBytesRx + labels)
	p.mTxBytes = s.metrics.Counter(MetricBytesTx + labels)
	p.mDropRx = s.metrics.Counter(MetricFramesDropped + labelsRx)
	p.mDropTx = s.metrics.Counter(MetricFramesDropped + labelsTx)
	p.mDropRxBytes = s.metrics.Counter(MetricBytesDropped + labelsRx)
	p.mDropTxBytes = s.metrics.Counter(MetricBytesDropped + labelsTx)
	p.ep = link.NewEndpoint(l, end, p)
	s.ports[no] = p
	s.order = append(s.order, no)
	// A port plugged in after the control handshake is announced, so the
	// controller's port inventory (and thus its flood set and LLDP
	// probing) includes it; ports present at handshake time ride in the
	// FeaturesReply instead.
	if s.handshook {
		s.sendPortStatus(p, openflow.PortReasonAdd)
	}
	return p
}

// Port returns the port with the given number, or nil.
func (s *Switch) Port(no uint32) *Port { return s.ports[no] }

// SetControlSender wires the switch's upstream control-plane transmit
// function (typically a link.Channel end). fn must not retain the byte
// slice past the call: the switch marshals every message into one reused
// scratch buffer. Channel ends satisfy this (Channel.Send copies each
// message when it is sent), as do senders that decode or copy
// synchronously.
func (s *Switch) SetControlSender(fn func([]byte)) { s.sendControl = fn }

// sendMarshaled marshals m into the transmit scratch buffer and hands it
// to the control sender.
func (s *Switch) sendMarshaled(xid uint32, m openflow.Message) {
	s.txBuf = openflow.AppendMarshal(s.txBuf[:0], xid, m)
	s.sendControl(s.txBuf)
}

func (s *Switch) toController(m openflow.Message) {
	if s.sendControl == nil {
		return
	}
	s.xid++
	s.sendMarshaled(s.xid, m)
}

func (s *Switch) sendPortStatus(p *Port, reason uint8) {
	s.toController(&openflow.PortStatus{
		Reason: reason,
		Desc:   openflow.PortDesc{No: p.no, Name: fmt.Sprintf("s%d-eth%d", s.dpid, p.no), Up: p.up},
	})
}

// sendPacketIn punts a frame to the controller, building the PacketIn in
// the switch's scratch.
func (s *Switch) sendPacketIn(inPort uint32, reason uint8, data []byte) {
	s.packetIn = openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		InPort:   inPort,
		Reason:   reason,
		Data:     data,
	}
	s.toController(&s.packetIn)
	s.packetIn.Data = nil
}

// handleFrame processes a dataplane frame arriving on port in, and
// consumes it. The frame's match tuple is parsed at the first switch that
// reads it and travels with it, so later hops only stamp their in-port. A
// table miss punts the frame to the controller, whose PacketIn marshal
// copies it, and then releases it.
func (s *Switch) handleFrame(in *Port, f *link.Frame) {
	entry := s.table.Lookup(f.Fields(in.no))
	if entry == nil {
		s.sendPacketIn(in.no, openflow.ReasonNoMatch, f.Data)
		f.Release()
		return
	}
	entry.Hit(len(f.Data), s.kernel.Now())
	s.execute(entry.Actions, in.no, f)
}

// execute runs an action list on frame f, which entered via inPort (or
// openflow.PortNone for controller-originated packets), and consumes f.
// Each frame on the wire has one owner, so a frame bound for n egresses
// goes out as pooled copies on the first n-1 and as f itself on the
// last. Each egress is sent once the next action is known, which keeps
// every send and PacketIn in action order; an egress followed by a
// PacketIn gets a copy, because the PacketIn still reads f. f is
// released if no egress takes it.
func (s *Switch) execute(actions []openflow.Action, inPort uint32, f *link.Frame) {
	var last *Port // the latest egress, not yet sent
	for _, a := range actions {
		switch a.Port {
		case openflow.PortController:
			last = s.forward(last, nil, f)
			s.sendPacketIn(inPort, openflow.ReasonAction, f.Data)
		case openflow.PortFlood:
			for _, no := range s.order {
				if no != inPort {
					last = s.forward(last, s.ports[no], f)
				}
			}
		case openflow.PortAll:
			for _, no := range s.order {
				last = s.forward(last, s.ports[no], f)
			}
		case openflow.PortInPort:
			if p := s.ports[inPort]; p != nil {
				last = s.forward(last, p, f)
			}
		default:
			if p := s.ports[a.Port]; p != nil {
				last = s.forward(last, p, f)
			}
		}
	}
	if last != nil {
		last.send(f)
	} else {
		f.Release()
	}
}

// forward sends a pooled copy of f, its parsed tuple included, out of
// the pending egress, if any, and returns next as the new pending one.
func (s *Switch) forward(pending, next *Port, f *link.Frame) *Port {
	if pending != nil {
		pending.send(f.Copy())
	}
	return next
}

// HandleControl processes one OpenFlow message arriving from the
// controller. Malformed messages are dropped, as a real agent drops
// undecodable control traffic. data is decoded in place and the switch
// is done with it when HandleControl returns, so the caller must not
// write data during the call and may reuse it after. A PacketOut body
// is copied into a fresh pooled wire frame, so the dataplane never
// aliases the control message; its first switch hop parses it.
func (s *Switch) HandleControl(data []byte) {
	xid, m, err := s.dec.Decode(data)
	if err != nil {
		return
	}
	switch msg := m.(type) {
	case *openflow.Hello:
		s.toController(&openflow.Hello{})
	case *openflow.FeaturesRequest:
		s.handshook = true
		s.toController(s.featuresReply())
	case *openflow.EchoRequest:
		if s.sendControl != nil {
			s.sendMarshaled(xid, &openflow.EchoReply{Data: msg.Data})
		}
	case *openflow.PacketOut:
		s.execute(msg.Actions, msg.InPort, link.NewFrame(msg.Data))
	case *openflow.FlowMod:
		s.table.Apply(msg, s.kernel.Now())
	case *openflow.BarrierRequest:
		if s.sendControl != nil {
			s.sendMarshaled(xid, &openflow.BarrierReply{})
		}
	case *openflow.StatsRequest:
		if s.sendControl != nil {
			s.sendMarshaled(xid, s.statsReply(msg))
		}
	}
}

func (s *Switch) featuresReply() *openflow.FeaturesReply {
	reply := &openflow.FeaturesReply{DatapathID: s.dpid}
	for _, no := range s.order {
		p := s.ports[no]
		reply.Ports = append(reply.Ports, openflow.PortDesc{
			No:   p.no,
			Name: fmt.Sprintf("s%d-eth%d", s.dpid, p.no),
			Up:   p.up,
		})
	}
	return reply
}

// statsReply answers a stats poll. For StatsPort, a request scoped to a
// PortNo this switch does not have yields an explicit empty reply — the
// OpenFlow 1.0 behavior (OFPST_PORT with an empty body, not an error).
// The reply still arrives, so the controller can distinguish "switch
// answered: no such port" (empty, non-nil at the callback) from "reply
// lost" (nil after the stats timeout); see Controller.RequestPortStatsFor.
func (s *Switch) statsReply(req *openflow.StatsRequest) *openflow.StatsReply {
	reply := &openflow.StatsReply{Kind: req.Kind}
	switch req.Kind {
	case openflow.StatsFlow:
		reply.Flows = s.table.Stats(s.kernel.Now())
	case openflow.StatsPort:
		for _, no := range s.order {
			if req.PortNo != openflow.PortNone && req.PortNo != no {
				continue
			}
			p := s.ports[no]
			reply.Ports = append(reply.Ports, openflow.PortStats{
				PortNo:    p.no,
				RxPackets: p.rxPackets,
				TxPackets: p.txPackets,
				RxBytes:   p.mRxBytes.Value(),
				TxBytes:   p.mTxBytes.Value(),
			})
		}
	}
	return reply
}
