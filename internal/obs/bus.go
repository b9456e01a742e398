package obs

import (
	"fmt"
	"time"
)

// Kind classifies bus events into the streams the paper's evaluation
// observes: packet-level activity, topology mutations, and defense
// verdicts.
type Kind uint8

// Event kinds.
const (
	// KindPacket marks dataplane/control packet activity.
	KindPacket Kind = iota + 1
	// KindTopology marks link and host-binding mutations.
	KindTopology
	// KindVerdict marks defense decisions (alerts, blocks, flags).
	KindVerdict
	// KindKernel marks simulation-engine events.
	KindKernel
)

// String names the kind for event exports.
func (k Kind) String() string {
	switch k {
	case KindPacket:
		return "packet"
	case KindTopology:
		return "topology"
	case KindVerdict:
		return "verdict"
	case KindKernel:
		return "kernel"
	default:
		return "unknown"
	}
}

// Event is one structured record on the bus. It generalizes both
// controller.Alert and trace.Log lines: a virtual timestamp, a typed
// kind, the emitting module, a stable event name, the affected switch
// port (zero when not applicable), and an optional free-form detail.
// Emitters using static Name strings and zero Detail publish without
// allocating.
type Event struct {
	// At is virtual time since the kernel epoch.
	At     time.Duration
	Kind   Kind
	Module string
	Name   string
	DPID   uint64
	Port   uint32
	Detail string
}

// String renders the event in capture-log form.
func (e Event) String() string {
	loc := ""
	if e.DPID != 0 || e.Port != 0 {
		loc = fmt.Sprintf(" 0x%x:%d", e.DPID, e.Port)
	}
	detail := ""
	if e.Detail != "" {
		detail = " " + e.Detail
	}
	return fmt.Sprintf("%12s %-8s %-16s %s%s%s",
		e.At.Truncate(time.Microsecond), e.Kind, e.Module, e.Name, loc, detail)
}

// DefaultBusCapacity is the event retention of a registry's bus.
const DefaultBusCapacity = 1024

// Bus is a fixed-capacity ring of events plus optional subscribers.
// Publishing into a full ring evicts the oldest event. The ring is
// allocated at full capacity on the first Publish — most registries
// never publish — and never grows, so steady-state publishing allocates
// nothing.
type Bus struct {
	ring  []Event
	size  int // ring capacity, allocated on the first Publish
	next  int // slot the next event is written to
	n     int // events currently retained
	total uint64
	subs  []func(Event)
}

// NewBus creates a bus retaining at most capacity events (the default
// capacity if non-positive).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	return &Bus{size: capacity}
}

// Publish appends an event, evicting the oldest beyond capacity, and
// fans it out to subscribers.
func (b *Bus) Publish(ev Event) {
	if b.ring == nil {
		b.ring = make([]Event, b.size)
	}
	b.ring[b.next] = ev
	b.next = (b.next + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	b.total++
	for _, fn := range b.subs {
		fn(ev)
	}
}

// Subscribe registers fn to run on every subsequent Publish, on the
// publishing (kernel) goroutine.
func (b *Bus) Subscribe(fn func(Event)) {
	b.subs = append(b.subs, fn)
}

// Events snapshots the retained events, oldest first.
func (b *Bus) Events() []Event {
	out := make([]Event, 0, b.n)
	start := b.next - b.n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.n; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// Total reports all events ever published, including evicted ones.
func (b *Bus) Total() uint64 { return b.total }

// AppendFrom republishes src's retained events into b, in order, and
// accounts src's evicted events in the total. Subscribers do not fire:
// this is an aggregation step, not live traffic.
func (b *Bus) AppendFrom(src *Bus) {
	subs := b.subs
	b.subs = nil
	for _, ev := range src.Events() {
		b.Publish(ev)
	}
	b.subs = subs
	b.total += src.total - uint64(src.n)
}
