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
// a stale tuple. The in-flight delivery bookkeeping structs are recycled
// through per-link and per-channel free lists on unsplit links and
// channels only (one kernel runs both ends, so no locking); a split one
// allocates every delivery afresh, because the struct is made on the
// sending shard and consumed on the receiving one.
//
// A control message is copied once, when it is sent: control-plane
// senders marshal into reused scratch buffers, so Channel.Send copies the
// message into its delivery's buffer and the sender may reuse its own at
// once. On an unsplit channel that buffer is kept across the delivery
// struct's reuse, so steady-state control traffic allocates nothing. The
// delivered message is valid only during the handler call: the delivery
// returns to the free list once the handler returns (so a handler that
// sends on the same channel never gets back the buffer it is reading),
// and the next send overwrites it. A receiver that keeps bytes past its
// handler copies them. Under the race detector a delivered message is
// overwritten with 0xdd once its handler returns, as a released frame
// is, so a receiver that keeps one breaks a byte-identity or fingerprint
// test instead of passing silently.

// pipe is the delivery core that Link and Channel share: a full-duplex
// path whose sends draw injected loss and a one-way delay from a
// per-direction RNG stream (or the owning kernel's), carry a span when
// the sender is traced, and arrive through the owning kernel — or, once
// Split, through the shard group's cross-shard mailbox.
//
// A split pipe's ends live on different shards whose goroutines send
// concurrently, so its per-send mutable state is owned per direction
// (RNG streams, drop counters, span sequence numbers) or freshly
// allocated (delivery structs), and its shared fields stay fixed while
// the group runs: Link.SetCarrier panics on a split link, SetLossRate
// and SetLatency are legal only between runs, and a SetLatency whose
// sampler's lower bound undercuts the lookahead registered at Split
// panics.
type pipe struct {
	kernel             *sim.Kernel
	latency            sim.Sampler
	lossRate           float64
	droppedA, droppedB uint64
	rngA, rngB         *rand.Rand
	split              *splitState

	// Trace wiring: the pipe's identity hash plus one recorder per end
	// (the recorder of the shard that end lives on; identical for
	// unsplit pipes). Per-direction sequence counters number traced
	// sends, so a send's span ID depends only on the pipe's identity
	// and its position in that direction's traced traffic — never on
	// shard placement.
	trEnt      uint64
	trA, trB   *trace.Recorder
	seqA, seqB uint64
}

// splitState holds the cross-shard wiring of a split pipe.
type splitState struct {
	group          *sim.ShardGroup
	shardA, shardB int
	kernelB        *sim.Kernel
	minNs          int64 // latency lower bound registered as lookahead
}

// hop is the pipe's part of one in-flight send: its direction and, when
// traced, its span identity. It travels inside the delivery struct, so
// a traced chain crosses the cross-shard mailbox with its parent intact.
type hop struct {
	from    End
	spanID  uint64
	parent  uint64
	startNs int64
}

func newPipe(kernel *sim.Kernel, latency sim.Sampler) pipe {
	if latency == nil {
		latency = sim.Const(0)
	}
	return pipe{kernel: kernel, latency: latency}
}

// SetRands gives each direction its own latency/loss RNG stream instead
// of the owning kernel's. Sharded scenarios assign per-entity streams
// (seeded from the trial seed and the entity's identity) to EVERY link
// and control channel, so its draw sequence depends only on how much it
// has carried — not on which shard executes it — which is what keeps
// output byte-identical across shard counts.
func (p *pipe) SetRands(a, b *rand.Rand) {
	p.rngA, p.rngB = a, b
}

// SetTraceEntity assigns the identity hash for span derivation
// (networks set it at creation from the endpoint identities).
func (p *pipe) SetTraceEntity(ent uint64) { p.trEnt = ent }

// SetTraceRecorders wires the per-end span recorders (end A's shard and
// end B's shard; pass the same recorder twice when unsplit). Sends
// traverse with a span only while the sending side carries a live trace
// context, so an un-enabled recorder costs one nil-or-zero check per
// send.
func (p *pipe) SetTraceRecorders(a, b *trace.Recorder) {
	p.trA, p.trB = a, b
}

// rec is the recorder of the given end's shard.
func (p *pipe) rec(end End) *trace.Recorder {
	if end == EndA {
		return p.trA
	}
	return p.trB
}

// span derives the hop of one send from the given end: the span fields
// stay zero when the send is outside any traced causal chain.
func (p *pipe) span(from End) hop {
	h := hop{from: from}
	rec := p.rec(from)
	if rec == nil {
		return h
	}
	if h.parent = rec.Current(); h.parent == 0 {
		return h
	}
	seq := &p.seqA
	if from == EndB {
		seq = &p.seqB
	}
	*seq++
	h.spanID = trace.MixID(uint64(trace.KindLink), p.trEnt, uint64(from), *seq)
	h.startNs = rec.Now()
	return h
}

// emitSpan records a traced send's traversal, under the given span name,
// on the receiving shard's recorder and makes it the current context so
// the receive path chains under it.
func (p *pipe) emitSpan(name string, h hop) {
	rec := p.rec(h.from.other())
	if rec == nil {
		return
	}
	rec.Emit(trace.Span{
		ID: h.spanID, Parent: h.parent,
		Start: h.startNs, End: rec.Now(),
		Kind: trace.KindLink, Name: name,
		Entity: p.trEnt, Port: uint32(h.from),
	})
	rec.SetCurrent(h.spanID)
}

// rng selects the RNG stream for a send from the given end.
func (p *pipe) rng(from End) *rand.Rand {
	if from == EndA {
		if p.rngA != nil {
			return p.rngA
		}
	} else if p.rngB != nil {
		return p.rngB
	}
	return p.kernel.Rand()
}

// lose draws one send's injected loss from r and counts it if it hits.
// Callers guard it with lossRate > 0, so a lossless send draws only its
// delay.
func (p *pipe) lose(from End, r *rand.Rand) bool {
	if r.Float64() >= p.lossRate {
		return false
	}
	if from == EndA {
		p.droppedA++
	} else {
		p.droppedB++
	}
	return true
}

// post completes a send that survived loss: it draws the delay from r,
// derives the send's hop into h (a field of arg), and schedules fn(arg)
// through the group mailbox when split, on the owning kernel otherwise.
func (p *pipe) post(from End, r *rand.Rand, h *hop, fn func(any), arg any) {
	delay := p.latency.Sample(r)
	*h = p.span(from)
	if s := p.split; s != nil {
		src, dst := s.shardA, s.shardB
		if from == EndB {
			src, dst = dst, src
		}
		s.group.Post(src, dst, delay, fn, arg)
		return
	}
	p.kernel.ScheduleArg(delay, fn, arg)
}

// Split marks the pipe as crossing shards: end A lives on shardA of the
// group and end B on shardB (with kernelB as B's kernel). Sends are
// handed across via the group's cross-shard mailbox instead of the local
// kernel, and the pipe's guaranteed minimum latency is registered as
// group lookahead. Requires per-direction RNG streams (SetRands) so
// draws stay off the shard kernels, and a latency sampler with a
// positive lower bound (sim.MinBounder) — conservative synchronization
// is impossible without one. Control connections from a central
// controller shard to pod shards and trunks between pods are the users.
func (p *pipe) Split(group *sim.ShardGroup, shardA, shardB int, kernelB *sim.Kernel) {
	if p.split != nil {
		panic("link: already split")
	}
	if p.rngA == nil || p.rngB == nil {
		panic("link: Split requires per-direction RNGs (SetRands)")
	}
	min, ok := sim.SamplerMinBound(p.latency)
	if !ok || min <= 0 {
		panic(fmt.Sprintf("link: cross-shard latency %T has no positive lower bound", p.latency))
	}
	group.RegisterCrossLatency(min)
	p.split = &splitState{group: group, shardA: shardA, shardB: shardB, kernelB: kernelB, minNs: int64(min)}
}

// SetLossRate sets an independent per-send drop probability, clamped to
// [0, 1], for failure-injection experiments: a degraded control
// connection, or how many consecutive lost LLDP probes a link survives
// given Table III's timeout margins.
func (p *pipe) SetLossRate(rate float64) {
	p.lossRate = min(max(rate, 0), 1)
}

// LossRate reports the current injected per-send drop probability.
func (p *pipe) LossRate() float64 { return p.lossRate }

// Latency reports the current per-send delay sampler.
func (p *pipe) Latency() sim.Sampler { return p.latency }

// SetLatency swaps the delay sampler. Sends already in flight keep the
// delay they were sent with; only subsequent sends sample the new
// distribution. Fault injection wraps the current sampler (e.g. with
// sim.Scaled) for the duration of a latency spike and restores it after.
// On a split pipe the replacement must keep a lower bound at least the
// one registered as group lookahead, and the swap must happen between
// runs (the field is read concurrently during windows).
func (p *pipe) SetLatency(s sim.Sampler) {
	if s == nil {
		s = sim.Const(0)
	}
	if sp := p.split; sp != nil {
		min, ok := sim.SamplerMinBound(s)
		if !ok || int64(min) < sp.minNs {
			panic("link: new latency undercuts the split pipe's registered lookahead")
		}
	}
	p.latency = s
}

// Dropped reports sends lost to injected loss, both directions summed;
// on a split pipe call it only between runs.
func (p *pipe) Dropped() uint64 { return p.droppedA + p.droppedB }

// frameDelivery is the in-flight state of one Link.Send, pooled on an
// unsplit link so steady-state forwarding does not allocate it per frame.
type frameDelivery struct {
	hop
	l     *Link
	frame *Frame
}

// deliverFrame completes a frame traversal. It is a package-level func so
// scheduling it via sim.ScheduleArg captures no closure. An unsplit link
// recycles the delivery struct before ReceiveFrame runs, so a synchronous
// re-send from the receiver can reuse it; a split link's struct was made
// on the sender's shard and runs on the receiver's, so it stays off the
// (single-shard) free list. The carrier check always passes on a split
// link: Send drops while a carrier is down, and SetCarrier panics after
// Split.
func deliverFrame(arg any) {
	d := arg.(*frameDelivery)
	l, f, h := d.l, d.frame, d.hop
	if l.split == nil {
		d.l, d.frame = nil, nil
		l.free = append(l.free, d)
	}
	if h.spanID != 0 {
		l.emitSpan("link.frame", h)
	}
	if peer := l.peer(h.from); peer != nil && l.carrier(h.from.other()) && l.carrier(h.from) {
		peer.ReceiveFrame(f)
		return
	}
	f.Release()
}

// Link is a full-duplex point-to-point dataplane link.
type Link struct {
	pipe
	a, b Attachment
	upA  bool
	upB  bool
	free []*frameDelivery

	// Fault watching (see OnFault): the registered observer and the
	// deliverability state it last saw, so only transitions notify.
	faultFn    func(alive bool)
	faultAlive bool
}

// NewLink creates a link whose per-frame one-way delay is drawn from
// latency. Both ends start with carrier up once attached.
func NewLink(kernel *sim.Kernel, latency sim.Sampler) *Link {
	return &Link{pipe: newPipe(kernel, latency), upA: true, upB: true}
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

// SetLossRate sets an independent per-frame drop probability, clamped to
// [0, 1], and notifies the OnFault observer when the link's
// deliverability transitions.
func (l *Link) SetLossRate(p float64) {
	l.pipe.SetLossRate(p)
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
	if l.lossRate > 0 && l.lose(from, r) {
		f.Release()
		return
	}
	var d *frameDelivery
	if n := len(l.free); n > 0 && l.split == nil {
		d = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		d = &frameDelivery{}
	}
	d.l, d.frame = l, f
	l.post(from, r, &d.hop, deliverFrame, d)
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
	pipe
	onA  func([]byte)
	onB  func([]byte)
	free []*msgDelivery
}

// msgDelivery is the in-flight state of one channel send, pooled like
// frameDelivery. On an unsplit channel buf keeps its backing array across
// reuse, so the message copy lands in recycled memory.
type msgDelivery struct {
	hop
	c   *Channel
	buf []byte
}

// delivery returns a delivery struct holding a copy of data: a recycled
// one on an unsplit channel, a fresh one on a split channel (made on the
// sending shard, consumed on the receiving one).
func (c *Channel) delivery(data []byte) *msgDelivery {
	var d *msgDelivery
	if n := len(c.free); n > 0 && c.split == nil {
		d = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		d = &msgDelivery{c: c}
	}
	d.buf = append(d.buf[:0], data...)
	return d
}

// recycle ends a delivery: under the race detector its message is
// scrubbed, and on an unsplit channel the struct and its buffer return to
// the free list.
func (c *Channel) recycle(d *msgDelivery) {
	if scrubReleased {
		for i := range d.buf {
			d.buf[i] = 0xdd
		}
	}
	if c.split == nil {
		c.free = append(c.free, d)
	}
}

// deliverMsg completes a channel send. It is a package-level func so
// scheduling it via sim.ScheduleArg captures no closure. Unlike
// deliverFrame it recycles the delivery only after the handler returns,
// because the handler reads the delivery's own buffer.
func deliverMsg(arg any) {
	d := arg.(*msgDelivery)
	c, h := d.c, d.hop
	if h.spanID != 0 {
		c.emitSpan("chan.msg", h)
	}
	fn := c.onA
	if h.from == EndA {
		fn = c.onB
	}
	if fn != nil {
		fn(d.buf)
	}
	c.recycle(d)
}

// NewChannel creates a bidirectional message pipe with the given one-way
// latency distribution.
func NewChannel(kernel *sim.Kernel, latency sim.Sampler) *Channel {
	return &Channel{pipe: newPipe(kernel, latency)}
}

// OnReceive registers the message handler for one end. The handler's
// message is valid only during the call: the channel reuses its memory
// for a later send, so a handler that keeps bytes copies them.
func (c *Channel) OnReceive(end End, fn func([]byte)) {
	if end == EndA {
		c.onA = fn
	} else {
		c.onB = fn
	}
}

// Send delivers a message to the other end after the channel latency.
// Messages sent before the receiving handler is registered are dropped.
// data is copied, after the loss draw, into memory the channel recycles;
// the caller may reuse its buffer once Send returns, and the receiving
// handler may read the delivered copy only during its call.
func (c *Channel) Send(from End, data []byte) {
	r := c.rng(from)
	if c.lossRate > 0 && c.lose(from, r) {
		return
	}
	d := c.delivery(data)
	c.post(from, r, &d.hop, deliverMsg, d)
}

// SendAfter behaves like Send with an extra fixed delay prepended, used to
// model processing time at the sender (e.g. 802.11 encode/decode on an
// out-of-band relay). The delay elapses on the sender's own shard. data
// is copied once, now, into the delivery that carries it; the loss and
// latency draws happen when the delay has elapsed, as for a Send then.
func (c *Channel) SendAfter(from End, extra time.Duration, data []byte) {
	d := c.delivery(data)
	d.from = from
	k := c.kernel
	if s := c.split; s != nil && from == EndB {
		k = s.kernelB
	}
	k.ScheduleArg(extra, sendDelayed, d)
}

// sendDelayed is the send half of SendAfter, run once the extra delay has
// elapsed: the delivery already holds the message and its direction.
func sendDelayed(arg any) {
	d := arg.(*msgDelivery)
	c, from := d.c, d.from
	r := c.rng(from)
	if c.lossRate > 0 && c.lose(from, r) {
		c.recycle(d)
		return
	}
	c.post(from, r, &d.hop, deliverMsg, d)
}
