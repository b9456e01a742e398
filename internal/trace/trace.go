// Package trace provides a tcpdump-style capture facility for the
// simulation: tap a host NIC and every frame it receives is summarized
// (layer by layer, LLDP TLVs included) into a bounded in-memory log, with
// virtual timestamps. Examples and the topotamper CLI use it to show what
// an attack looks like on the wire.
package trace

import (
	"fmt"
	"strings"
	"time"

	"sdntamper/internal/dataplane"
	"sdntamper/internal/lldp"
	"sdntamper/internal/packet"
	"sdntamper/internal/sim"
)

// Event is one captured observation.
type Event struct {
	At     time.Duration // virtual time since epoch
	Source string        // tap name
	Detail string        // one-line summary
}

// String renders the event like a capture tool would.
func (e Event) String() string {
	return fmt.Sprintf("%12s %-12s %s", e.At.Truncate(time.Microsecond), e.Source, e.Detail)
}

// Log is a bounded capture log backed by a fixed ring buffer: once the
// ring is allocated, steady-state captures never touch the allocator (an
// earlier implementation evicted by re-slicing an append-grown slice,
// which both reallocated periodically and pinned every evicted event
// until the next growth). It is not safe for concurrent use; like
// everything else it lives on the simulation's single event loop.
type Log struct {
	kernel *sim.Kernel
	ring   []Event // fixed length == capacity
	next   int     // ring index the next event lands in
	total  uint64
}

// NewLog creates a log retaining at most max events (1024 if max <= 0).
func NewLog(kernel *sim.Kernel, max int) *Log {
	if max <= 0 {
		max = 1024
	}
	return &Log{kernel: kernel, ring: make([]Event, max)}
}

// Addf appends a formatted event, overwriting the oldest beyond
// capacity. With no args the format string is stored as-is, so
// pre-rendered details skip fmt entirely.
func (l *Log) Addf(source, format string, args ...any) {
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	l.ring[l.next] = Event{At: l.kernel.Elapsed(), Source: source, Detail: detail}
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
	}
	l.total++
}

// retained reports how many ring slots hold live events.
func (l *Log) retained() int {
	if l.total >= uint64(len(l.ring)) {
		return len(l.ring)
	}
	return int(l.total)
}

// each visits the retained events oldest-first.
func (l *Log) each(fn func(Event)) {
	if l.total >= uint64(len(l.ring)) {
		for _, e := range l.ring[l.next:] {
			fn(e)
		}
	}
	for _, e := range l.ring[:l.next] {
		fn(e)
	}
}

// Events snapshots the retained events in order.
func (l *Log) Events() []Event {
	out := make([]Event, 0, l.retained())
	l.each(func(e Event) { out = append(out, e) })
	return out
}

// Total reports all events ever captured, including evicted ones.
func (l *Log) Total() uint64 { return l.total }

// String renders the retained events, one per line.
func (l *Log) String() string {
	var b strings.Builder
	l.each(func(e Event) {
		b.WriteString(e.String())
		b.WriteByte('\n')
	})
	return b.String()
}

// TapHost records a summary of every frame the host receives, preserving
// any existing OnFrame hook (the tap observes, it never consumes).
func (l *Log) TapHost(h *dataplane.Host, name string) {
	prev := h.OnFrame
	h.OnFrame = func(eth *packet.Ethernet, raw []byte) bool {
		l.Addf(name, Summarize(raw))
		if prev != nil {
			return prev(eth, raw)
		}
		return false
	}
}

// Summarize renders a one-line, tcpdump-flavored description of a raw
// Ethernet frame, descending as far as the layers parse.
func Summarize(raw []byte) string {
	eth, err := packet.DecodeEthernet(raw)
	if err != nil {
		return fmt.Sprintf("malformed frame (%d bytes)", len(raw))
	}
	head := fmt.Sprintf("%s > %s", eth.Src, eth.Dst)
	switch eth.Type {
	case packet.EtherTypeARP:
		return head + " " + summarizeARP(eth.Payload)
	case packet.EtherTypeIPv4:
		return head + " " + summarizeIPv4(eth.Payload)
	case packet.EtherTypeLLDP:
		return head + " " + summarizeLLDP(eth.Payload)
	default:
		return fmt.Sprintf("%s ethertype %s, %d bytes", head, eth.Type, len(eth.Payload))
	}
}

func summarizeARP(payload []byte) string {
	arp, err := packet.DecodeARP(payload)
	if err != nil {
		return fmt.Sprintf("ARP (malformed, %d bytes)", len(payload))
	}
	if arp.Op == packet.ARPRequest {
		return fmt.Sprintf("ARP who-has %s tell %s (%s)", arp.TargetIP, arp.SenderIP, arp.SenderHW)
	}
	return fmt.Sprintf("ARP %s is-at %s", arp.SenderIP, arp.SenderHW)
}

func summarizeIPv4(payload []byte) string {
	ip, err := packet.UnmarshalIPv4(payload)
	if err != nil {
		return fmt.Sprintf("IPv4 (malformed, %d bytes)", len(payload))
	}
	head := fmt.Sprintf("IP %s > %s", ip.Src, ip.Dst)
	switch ip.Protocol {
	case packet.ProtoICMP:
		m, err := packet.UnmarshalICMP(ip.Payload)
		if err != nil {
			return head + fmt.Sprintf(" ICMP (malformed, %d bytes)", len(ip.Payload))
		}
		kind := "type " + fmt.Sprint(m.Type)
		switch m.Type {
		case packet.ICMPEchoRequest:
			kind = "echo request"
		case packet.ICMPEchoReply:
			kind = "echo reply"
		}
		return fmt.Sprintf("%s ICMP %s id=%d seq=%d", head, kind, m.ID, m.Seq)
	case packet.ProtoTCP:
		seg, err := packet.UnmarshalTCP(ip.Payload)
		if err != nil {
			return head + fmt.Sprintf(" TCP (malformed, %d bytes)", len(ip.Payload))
		}
		return fmt.Sprintf("%s TCP %d > %d [%s] seq=%d len=%d",
			head, seg.SrcPort, seg.DstPort, seg.Flags, seg.Seq, len(seg.Payload))
	case packet.ProtoUDP:
		u, err := packet.UnmarshalUDP(ip.Payload)
		if err != nil {
			return head + fmt.Sprintf(" UDP (malformed, %d bytes)", len(ip.Payload))
		}
		return fmt.Sprintf("%s UDP %d > %d len=%d", head, u.SrcPort, u.DstPort, len(u.Payload))
	default:
		return fmt.Sprintf("%s proto=%d len=%d", head, ip.Protocol, len(ip.Payload))
	}
}

func summarizeLLDP(payload []byte) string {
	f, err := lldp.Unmarshal(payload)
	if err != nil {
		return fmt.Sprintf("LLDP (malformed, %d bytes)", len(payload))
	}
	extras := ""
	if f.Auth != nil {
		extras += " +hmac"
	}
	if f.Timestamp != nil {
		extras += " +timestamp"
	}
	return fmt.Sprintf("LLDP chassis=0x%x port=%d ttl=%ds%s", f.ChassisID, f.PortID, f.TTLSecs, extras)
}
