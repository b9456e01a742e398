// Package link models the physical connectivity of the simulated network:
// point-to-point dataplane links with per-direction latency samplers and
// carrier (link-pulse) signaling, control-channel connections between
// switches and the controller, and free-form out-of-band channels such as
// the 802.11 side link the paper's colluding hosts use.
package link

import (
	"fmt"
	"math/rand"
	"time"

	"sdntamper/internal/obs/trace"
	"sdntamper/internal/sim"
)

// Attachment is anything that terminates a dataplane link: a switch port
// or a host NIC.
type Attachment interface {
	// ReceiveFrame delivers a wire frame that finished traversing the
	// link. It is never called while the peer's carrier is down at send
	// time. The receiver becomes the frame's one owner: it must either
	// hand f on (to Link.Send) or Release it, and must not touch f.Data
	// afterwards. A receiver that wants bytes beyond that point copies
	// them.
	ReceiveFrame(f *Frame)
	// CarrierChange signals that the peer's transceiver went up or down.
	// The physical signal loss is instantaneous; any detection latency
	// (e.g. 802.3 link-pulse timing) is applied by the receiver.
	CarrierChange(up bool)
}

// End selects one side of a Link.
type End int

// Link ends.
const (
	EndA End = iota + 1
	EndB
)

func (e End) other() End {
	if e == EndA {
		return EndB
	}
	return EndA
}

// Buffer ownership contract. Every dataplane wire frame is a *Frame with
// exactly one owner, and its buffer goes back to a pool when the last
// owner is done. A frame is made where its bytes enter the dataplane: a
// sending host copies its scratch buffer (dataplane.Host.SendRaw) and a
// switch copies a PacketOut body, each into a pooled frame. Link.Send
// takes ownership and never copies; a drop at send (carrier down,
// injected loss) or at delivery releases the frame, and delivery hands
// it to the peer's ReceiveFrame. A switch forwards the frame itself to
// one egress and pooled copies (Frame.Copy) to any others, and releases
// it when it punts the frame to the controller (the PacketIn marshal
// copies it), drops it, or has no egress; a host releases it once its
// hooks and responders return. Because no holder writes a frame, the
// match tuple parsed from its bytes (Frame.Fields) is computed at the
// first switch that reads it and travels with it to its last hop: a copy
// carries it too, and NewFrame clears it, so a recycled frame never keeps
// a stale tuple. Channel.Send keeps copy-at-ingress: control-plane
// senders marshal into reused scratch buffers, so the channel copies the
// message when it is sent and the receiver owns the delivered copy
// outright. The in-flight delivery bookkeeping structs are recycled
// through per-link free lists (links are single-kernel, so no locking).

// frameDelivery is the in-flight state of one Link.Send, pooled on the
// owning link so steady-state forwarding does not allocate it per frame.
// The span fields carry the traversal's trace identity from the sending
// shard to the receiving one — the pooled struct IS the cross-shard
// span handoff, so a traced chain survives the cross-shard mailbox with its
// parent intact.
type frameDelivery struct {
	l       *Link
	from    End
	frame   *Frame
	spanID  uint64
	parent  uint64
	startNs int64
}

// deliverFrame completes a frame traversal. It is a package-level func so
// scheduling it via sim.ScheduleArg captures no closure; the delivery
// struct is recycled before ReceiveFrame runs so a synchronous re-send
// from the receiver can reuse it.
func deliverFrame(arg any) {
	d := arg.(*frameDelivery)
	l, from, f := d.l, d.from, d.frame
	spanID, parent, startNs := d.spanID, d.parent, d.startNs
	d.l, d.frame = nil, nil
	l.free = append(l.free, d)
	if spanID != 0 {
		l.emitFrameSpan(from, spanID, parent, startNs)
	}
	if peer := l.peer(from); peer != nil && l.carrier(from.other()) && l.carrier(from) {
		peer.ReceiveFrame(f)
		return
	}
	f.Release()
}

// deliverFrameSplit is the cross-shard variant: the delivery struct was
// allocated on the sender's shard and executes on the receiver's, so it
// is never recycled into the link's (single-shard) free list.
func deliverFrameSplit(arg any) {
	d := arg.(*frameDelivery)
	if d.spanID != 0 {
		d.l.emitFrameSpan(d.from, d.spanID, d.parent, d.startNs)
	}
	if peer := d.l.peer(d.from); peer != nil {
		peer.ReceiveFrame(d.frame)
		return
	}
	d.frame.Release()
}

// splitState holds the cross-shard wiring of a Link or Channel whose two
// ends live on different shards of a sim.ShardGroup. A split link's
// shared fields become effectively read-only (SetCarrier, SetLossRate
// and narrowing SetLatency panic); mutable per-send state is either
// owned per direction (drop counters, RNG streams) or freshly allocated
// (delivery structs), so both shard goroutines can send concurrently.
type splitState struct {
	group              *sim.ShardGroup
	shardA, shardB     int
	kernelB            *sim.Kernel
	minNs              int64 // latency lower bound registered as lookahead
	droppedA, droppedB uint64
}

func (s *splitState) route(from End) (src, dst int) {
	if from == EndA {
		return s.shardA, s.shardB
	}
	return s.shardB, s.shardA
}

// Link is a full-duplex point-to-point dataplane link.
type Link struct {
	kernel   *sim.Kernel
	latency  sim.Sampler
	lossRate float64
	a, b     Attachment
	upA      bool
	upB      bool
	dropped  uint64
	free     []*frameDelivery
	rngA     *rand.Rand
	rngB     *rand.Rand
	split    *splitState

	// Trace wiring: the link's identity hash plus one recorder per end
	// (the recorder of the shard that end lives on; identical for
	// unsplit links). Per-direction sequence counters number traced
	// sends, so a frame's span ID depends only on the link's identity
	// and its position in that direction's traced traffic — never on
	// shard placement.
	trEnt      uint64
	trA, trB   *trace.Recorder
	seqA, seqB uint64

	// Fault watching (see OnFault): the registered observer and the
	// deliverability state it last saw, so only transitions notify.
	faultFn    func(alive bool)
	faultAlive bool
}

// NewLink creates a link whose per-frame one-way delay is drawn from
// latency. Both ends start with carrier up once attached.
func NewLink(kernel *sim.Kernel, latency sim.Sampler) *Link {
	if latency == nil {
		latency = sim.Const(0)
	}
	return &Link{kernel: kernel, latency: latency, upA: true, upB: true}
}

// Attach connects an attachment to one end of the link.
func (l *Link) Attach(end End, att Attachment) {
	if end == EndA {
		l.a = att
	} else {
		l.b = att
	}
}

func (l *Link) peer(end End) Attachment {
	if end == EndA {
		return l.b
	}
	return l.a
}

func (l *Link) carrier(end End) bool {
	if end == EndA {
		return l.upA
	}
	return l.upB
}

// CarrierUp reports whether the transceiver on the given end is up.
func (l *Link) CarrierUp(end End) bool { return l.carrier(end) }

// SetRands gives each direction its own latency/loss RNG stream instead
// of the owning kernel's. Sharded scenarios assign per-link streams
// (seeded from the trial seed and the link's identity) to EVERY link, so
// a link's draw sequence depends only on how many frames it has carried
// — not on which shard executes it — which is what keeps output
// byte-identical across shard counts.
func (l *Link) SetRands(a, b *rand.Rand) {
	l.rngA, l.rngB = a, b
}

// SetTraceEntity assigns the link's identity hash for span derivation
// (networks set it at creation from the link's endpoint identities).
func (l *Link) SetTraceEntity(ent uint64) { l.trEnt = ent }

// SetTraceRecorders wires the per-end span recorders (end A's shard and
// end B's shard; pass the same recorder twice for an unsplit link).
// Frames traverse with a span only while the sending side carries a
// live trace context, so an un-enabled recorder costs one nil-or-zero
// check per send.
func (l *Link) SetTraceRecorders(a, b *trace.Recorder) {
	l.trA, l.trB = a, b
}

// recFrom is the sending side's recorder; recTo the receiving side's.
func (l *Link) recFrom(from End) *trace.Recorder {
	if from == EndA {
		return l.trA
	}
	return l.trB
}

func (l *Link) recTo(from End) *trace.Recorder {
	if from == EndA {
		return l.trB
	}
	return l.trA
}

// frameSpan derives the span identity of one traced send, or zeros when
// the send is outside any traced causal chain.
func (l *Link) frameSpan(from End) (spanID, parent uint64, startNs int64) {
	rec := l.recFrom(from)
	if rec == nil {
		return 0, 0, 0
	}
	parent = rec.Current()
	if parent == 0 {
		return 0, 0, 0
	}
	var seq uint64
	if from == EndA {
		l.seqA++
		seq = l.seqA
	} else {
		l.seqB++
		seq = l.seqB
	}
	return trace.MixID(uint64(trace.KindLink), l.trEnt, uint64(from), seq), parent, rec.Now()
}

// emitFrameSpan records the wire traversal on the receiving shard's
// recorder and makes it the current context so the receive path chains
// under it.
func (l *Link) emitFrameSpan(from End, id, parent uint64, startNs int64) {
	rec := l.recTo(from)
	if rec == nil {
		return
	}
	rec.Emit(trace.Span{
		ID: id, Parent: parent,
		Start: startNs, End: rec.Now(),
		Kind: trace.KindLink, Name: "link.frame",
		Entity: l.trEnt, Port: uint32(from),
	})
	rec.SetCurrent(id)
}

// rng selects the RNG stream for a send from the given end.
func (l *Link) rng(from End) *rand.Rand {
	if from == EndA {
		if l.rngA != nil {
			return l.rngA
		}
	} else if l.rngB != nil {
		return l.rngB
	}
	return l.kernel.Rand()
}

// Split marks the link as crossing shards: end A lives on shardA of the
// group and end B on shardB (with kernelB as B's kernel). Frames are
// handed across via the group's cross-shard mailbox instead of the local
// kernel, and the link's guaranteed minimum latency is registered as
// group lookahead. Requires per-direction RNG streams (SetRands) so
// draws stay off the shard kernels, and a latency sampler with a
// positive lower bound (sim.MinBounder) — conservative synchronization
// is impossible without one.
func (l *Link) Split(group *sim.ShardGroup, shardA, shardB int, kernelB *sim.Kernel) {
	if l.split != nil {
		panic("link: already split")
	}
	if l.rngA == nil || l.rngB == nil {
		panic("link: Split requires per-direction RNGs (SetRands)")
	}
	min, ok := sim.SamplerMinBound(l.latency)
	if !ok || min <= 0 {
		panic(fmt.Sprintf("link: cross-shard latency %T has no positive lower bound", l.latency))
	}
	group.RegisterCrossLatency(min)
	l.split = &splitState{group: group, shardA: shardA, shardB: shardB, kernelB: kernelB, minNs: int64(min)}
}

// SetLossRate sets an independent per-frame drop probability, for
// failure-injection experiments (e.g. how many consecutive lost LLDP
// probes a link survives given Table III's timeout margins).
func (l *Link) SetLossRate(p float64) {
	switch {
	case p < 0:
		l.lossRate = 0
	case p > 1:
		l.lossRate = 1
	default:
		l.lossRate = p
	}
	l.notifyFault()
}

// OnFault registers fn to observe the link's deliverability transitions:
// fn(false) when the link stops delivering frames (either carrier drops,
// or injected loss reaches 100%), fn(true) when delivery becomes possible
// again. This is the physical-layer fault signal a BFD session riding
// the link would detect — modeled as a state observation rather than
// simulated hello traffic, exactly as Attachment.CarrierChange abstracts
// 802.3 link pulses. Only genuine transitions notify. One observer per
// link; registration snapshots the current state as the baseline. The
// callback runs synchronously inside the mutating call (SetCarrier /
// SetLossRate), so it executes wherever those are legal: on the owning
// kernel, or between runs.
func (l *Link) OnFault(fn func(alive bool)) {
	l.faultFn = fn
	l.faultAlive = l.deliverable()
}

// deliverable reports whether a frame sent now could possibly arrive.
func (l *Link) deliverable() bool { return l.upA && l.upB && l.lossRate < 1 }

// notifyFault fires the fault observer when deliverability transitioned.
func (l *Link) notifyFault() {
	if l.faultFn == nil {
		return
	}
	if alive := l.deliverable(); alive != l.faultAlive {
		l.faultAlive = alive
		l.faultFn(alive)
	}
}

// Dropped reports frames lost to injected loss. On a split link the
// per-direction counts are summed; call it only between runs.
func (l *Link) Dropped() uint64 {
	if s := l.split; s != nil {
		return l.dropped + s.droppedA + s.droppedB
	}
	return l.dropped
}

func (l *Link) noteDrop(from End) {
	if s := l.split; s != nil {
		if from == EndA {
			s.droppedA++
		} else {
			s.droppedB++
		}
		return
	}
	l.dropped++
}

// LossRate reports the current injected per-frame drop probability.
func (l *Link) LossRate() float64 { return l.lossRate }

// Latency reports the link's current per-frame delay sampler.
func (l *Link) Latency() sim.Sampler { return l.latency }

// SetLatency swaps the link's delay sampler. Frames already in flight keep
// the delay they were sent with; only subsequent sends sample the new
// distribution. Fault injection wraps the current sampler (e.g. with
// sim.Scaled) for the duration of a latency spike and restores it after.
// On a split link the replacement must keep a lower bound at least the
// one registered as group lookahead, and the swap must happen between
// runs (the field is read concurrently during windows).
func (l *Link) SetLatency(s sim.Sampler) {
	if s == nil {
		s = sim.Const(0)
	}
	if sp := l.split; sp != nil {
		min, ok := sim.SamplerMinBound(s)
		if !ok || int64(min) < sp.minNs {
			panic("link: new latency undercuts the split link's registered lookahead")
		}
	}
	l.latency = s
}

// Send transmits a frame from the given end. The frame is delivered to
// the peer after the link's sampled latency. Frames are dropped (as on a
// real wire) if either transceiver is down at send time, if the
// receiving side's transceiver is down at delivery time, or by injected
// random loss. Send takes ownership of f without copying it: the caller
// must not touch f afterwards, a dropped frame is released, and the peer
// receives f itself (see the ownership contract above).
func (l *Link) Send(from End, f *Frame) {
	if !l.upA || !l.upB {
		f.Release()
		return
	}
	r := l.rng(from)
	if l.lossRate > 0 && r.Float64() < l.lossRate {
		l.noteDrop(from)
		f.Release()
		return
	}
	delay := l.latency.Sample(r)
	spanID, parent, startNs := l.frameSpan(from)
	if s := l.split; s != nil {
		src, dst := s.route(from)
		s.group.Post(src, dst, delay, deliverFrameSplit,
			&frameDelivery{l: l, from: from, frame: f, spanID: spanID, parent: parent, startNs: startNs})
		return
	}
	var d *frameDelivery
	if n := len(l.free); n > 0 {
		d = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		d = &frameDelivery{}
	}
	d.l, d.from, d.frame = l, from, f
	d.spanID, d.parent, d.startNs = spanID, parent, startNs
	l.kernel.ScheduleArg(delay, deliverFrame, d)
}

// SetCarrier raises or lowers the transceiver on one end (a host bringing
// its interface down, a cable unplugged). The peer attachment is notified
// immediately; modeling of detection latency is the peer's concern.
func (l *Link) SetCarrier(end End, up bool) {
	if l.split != nil {
		// Carrier flaps mutate state both shard goroutines read mid-window;
		// topology-tampering scenarios must keep their flapping links
		// inside one shard.
		panic("link: SetCarrier on a split link")
	}
	if end == EndA {
		if l.upA == up {
			return
		}
		l.upA = up
	} else {
		if l.upB == up {
			return
		}
		l.upB = up
	}
	if peer := l.peer(end); peer != nil {
		peer.CarrierChange(up)
	}
	l.notifyFault()
}

// Endpoint binds a link and an end into a single handle, so components
// hold one value rather than a (link, end) pair.
type Endpoint struct {
	link *Link
	end  End
}

// NewEndpoint attaches att to the given end and returns its handle.
func NewEndpoint(l *Link, end End, att Attachment) *Endpoint {
	l.Attach(end, att)
	return &Endpoint{link: l, end: end}
}

// Send transmits a frame toward the peer, taking ownership of f as
// Link.Send does.
func (e *Endpoint) Send(f *Frame) { e.link.Send(e.end, f) }

// SetCarrier raises or lowers this side's transceiver.
func (e *Endpoint) SetCarrier(up bool) { e.link.SetCarrier(e.end, up) }

// CarrierUp reports this side's transceiver state.
func (e *Endpoint) CarrierUp() bool { return e.link.CarrierUp(e.end) }

// PeerCarrierUp reports the peer transceiver state.
func (e *Endpoint) PeerCarrierUp() bool { return e.link.CarrierUp(e.end.other()) }

// Channel is a generic unidirectional-pair message pipe with latency, used
// for controller-switch control connections and for attacker out-of-band
// side channels. Unlike Link it has no carrier semantics, but it supports
// the same injected loss and latency knobs so control channels can be
// degraded in fault-injection experiments.
type Channel struct {
	kernel   *sim.Kernel
	latency  sim.Sampler
	lossRate float64
	dropped  uint64
	onA      func([]byte)
	onB      func([]byte)
	free     []*msgDelivery
	rngA     *rand.Rand
	rngB     *rand.Rand
	split    *splitState

	// Trace wiring; see the Link fields of the same names.
	trEnt      uint64
	trA, trB   *trace.Recorder
	seqA, seqB uint64
}

// msgDelivery is the pooled in-flight state of one Channel.Send. Like
// frameDelivery, the span fields carry a traced chain's identity across
// the shard boundary.
type msgDelivery struct {
	c       *Channel
	from    End
	buf     []byte
	spanID  uint64
	parent  uint64
	startNs int64
}

// deliverMsg completes a channel send; like deliverFrame it recycles the
// delivery struct before invoking the handler.
func deliverMsg(arg any) {
	d := arg.(*msgDelivery)
	c, from, buf := d.c, d.from, d.buf
	spanID, parent, startNs := d.spanID, d.parent, d.startNs
	d.c, d.buf = nil, nil
	c.free = append(c.free, d)
	if spanID != 0 {
		c.emitMsgSpan(from, spanID, parent, startNs)
	}
	var fn func([]byte)
	if from == EndA {
		fn = c.onB
	} else {
		fn = c.onA
	}
	if fn != nil {
		fn(buf)
	}
}

// deliverMsgSplit is the cross-shard variant of deliverMsg; like
// deliverFrameSplit it never touches the single-shard free list.
func deliverMsgSplit(arg any) {
	d := arg.(*msgDelivery)
	if d.spanID != 0 {
		d.c.emitMsgSpan(d.from, d.spanID, d.parent, d.startNs)
	}
	var fn func([]byte)
	if d.from == EndA {
		fn = d.c.onB
	} else {
		fn = d.c.onA
	}
	if fn != nil {
		fn(d.buf)
	}
}

// NewChannel creates a bidirectional message pipe with the given one-way
// latency distribution.
func NewChannel(kernel *sim.Kernel, latency sim.Sampler) *Channel {
	if latency == nil {
		latency = sim.Const(0)
	}
	return &Channel{kernel: kernel, latency: latency}
}

// OnReceive registers the message handler for one end.
func (c *Channel) OnReceive(end End, fn func([]byte)) {
	if end == EndA {
		c.onA = fn
	} else {
		c.onB = fn
	}
}

// SetLossRate sets an independent per-message drop probability on the
// channel, modeling a degraded control connection.
func (c *Channel) SetLossRate(p float64) {
	switch {
	case p < 0:
		c.lossRate = 0
	case p > 1:
		c.lossRate = 1
	default:
		c.lossRate = p
	}
}

// SetRands gives each channel direction its own RNG stream; see
// Link.SetRands for the shard-count-invariance rationale.
func (c *Channel) SetRands(a, b *rand.Rand) {
	c.rngA, c.rngB = a, b
}

// SetTraceEntity assigns the channel's identity hash for span
// derivation; see Link.SetTraceEntity.
func (c *Channel) SetTraceEntity(ent uint64) { c.trEnt = ent }

// SetTraceRecorders wires the per-end span recorders; see
// Link.SetTraceRecorders.
func (c *Channel) SetTraceRecorders(a, b *trace.Recorder) {
	c.trA, c.trB = a, b
}

func (c *Channel) recFrom(from End) *trace.Recorder {
	if from == EndA {
		return c.trA
	}
	return c.trB
}

func (c *Channel) recTo(from End) *trace.Recorder {
	if from == EndA {
		return c.trB
	}
	return c.trA
}

// msgSpan derives the span identity of one traced channel send; see
// Link.frameSpan.
func (c *Channel) msgSpan(from End) (spanID, parent uint64, startNs int64) {
	rec := c.recFrom(from)
	if rec == nil {
		return 0, 0, 0
	}
	parent = rec.Current()
	if parent == 0 {
		return 0, 0, 0
	}
	var seq uint64
	if from == EndA {
		c.seqA++
		seq = c.seqA
	} else {
		c.seqB++
		seq = c.seqB
	}
	return trace.MixID(uint64(trace.KindLink), c.trEnt, uint64(from), seq), parent, rec.Now()
}

// emitMsgSpan records the control-channel traversal on the receiving
// shard's recorder; see Link.emitFrameSpan.
func (c *Channel) emitMsgSpan(from End, id, parent uint64, startNs int64) {
	rec := c.recTo(from)
	if rec == nil {
		return
	}
	rec.Emit(trace.Span{
		ID: id, Parent: parent,
		Start: startNs, End: rec.Now(),
		Kind: trace.KindLink, Name: "chan.msg",
		Entity: c.trEnt, Port: uint32(from),
	})
	rec.SetCurrent(id)
}

func (c *Channel) rng(from End) *rand.Rand {
	if from == EndA {
		if c.rngA != nil {
			return c.rngA
		}
	} else if c.rngB != nil {
		return c.rngB
	}
	return c.kernel.Rand()
}

// Split marks the channel as crossing shards; see Link.Split. Control
// connections from a central controller shard to pod shards are the main
// user.
func (c *Channel) Split(group *sim.ShardGroup, shardA, shardB int, kernelB *sim.Kernel) {
	if c.split != nil {
		panic("link: channel already split")
	}
	if c.rngA == nil || c.rngB == nil {
		panic("link: Split requires per-direction RNGs (SetRands)")
	}
	min, ok := sim.SamplerMinBound(c.latency)
	if !ok || min <= 0 {
		panic(fmt.Sprintf("link: cross-shard latency %T has no positive lower bound", c.latency))
	}
	group.RegisterCrossLatency(min)
	c.split = &splitState{group: group, shardA: shardA, shardB: shardB, kernelB: kernelB, minNs: int64(min)}
}

// kernelFor reports the kernel owning the given end's shard.
func (c *Channel) kernelFor(from End) *sim.Kernel {
	if s := c.split; s != nil && from == EndB {
		return s.kernelB
	}
	return c.kernel
}

// Dropped reports messages lost to injected loss. On a split channel the
// per-direction counts are summed; call it only between runs.
func (c *Channel) Dropped() uint64 {
	if s := c.split; s != nil {
		return c.dropped + s.droppedA + s.droppedB
	}
	return c.dropped
}

func (c *Channel) noteDrop(from End) {
	if s := c.split; s != nil {
		if from == EndA {
			s.droppedA++
		} else {
			s.droppedB++
		}
		return
	}
	c.dropped++
}

// LossRate reports the current injected per-message drop probability.
func (c *Channel) LossRate() float64 { return c.lossRate }

// Latency reports the channel's current per-message delay sampler.
func (c *Channel) Latency() sim.Sampler { return c.latency }

// SetLatency swaps the channel's delay sampler. Messages already in flight
// keep the delay they were sent with. On a split channel the replacement
// must keep a lower bound at least the registered lookahead and the swap
// must happen between runs.
func (c *Channel) SetLatency(s sim.Sampler) {
	if s == nil {
		s = sim.Const(0)
	}
	if sp := c.split; sp != nil {
		min, ok := sim.SamplerMinBound(s)
		if !ok || int64(min) < sp.minNs {
			panic("link: new latency undercuts the split channel's registered lookahead")
		}
	}
	c.latency = s
}

// Send delivers a message to the other end after the channel latency.
// Messages sent before the receiving handler is registered are dropped.
// data is copied; the caller may reuse its buffer once Send returns, and
// the receiving handler owns the delivered copy.
func (c *Channel) Send(from End, data []byte) {
	r := c.rng(from)
	if c.lossRate > 0 && r.Float64() < c.lossRate {
		c.noteDrop(from)
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	delay := c.latency.Sample(r)
	spanID, parent, startNs := c.msgSpan(from)
	if s := c.split; s != nil {
		src, dst := s.route(from)
		s.group.Post(src, dst, delay, deliverMsgSplit,
			&msgDelivery{c: c, from: from, buf: buf, spanID: spanID, parent: parent, startNs: startNs})
		return
	}
	var d *msgDelivery
	if n := len(c.free); n > 0 {
		d = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		d = &msgDelivery{}
	}
	d.c, d.from, d.buf = c, from, buf
	d.spanID, d.parent, d.startNs = spanID, parent, startNs
	c.kernel.ScheduleArg(delay, deliverMsg, d)
}

// SendAfter behaves like Send with an extra fixed delay prepended, used to
// model processing time at the sender (e.g. 802.11 encode/decode on an
// out-of-band relay). The delay elapses on the sender's own shard.
func (c *Channel) SendAfter(from End, extra time.Duration, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	c.kernelFor(from).Schedule(extra, func() { c.Send(from, buf) })
}
