// Package dataplane models the data plane of the simulated SDN: OpenFlow
// switches (flow tables, counters, the 802.3 link-pulse port state machine
// that gates Port-Status generation) and end hosts (ARP/ICMP/TCP responder
// behaviour, interface manipulation with empirical ifconfig latencies).
package dataplane

import (
	"cmp"
	"slices"
	"time"

	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
)

// FlowEntry is one installed flow rule with its counters.
type FlowEntry struct {
	Match       openflow.Match
	Priority    uint16
	Actions     []openflow.Action
	IdleTimeout time.Duration // 0 = never idle-expires
	HardTimeout time.Duration // 0 = never hard-expires

	packets  uint64
	bytes    uint64
	created  time.Time
	lastUsed time.Time
	seq      uint64 // install sequence; a replacement inherits its predecessor's
}

// Packets reports how many packets matched the entry.
func (e *FlowEntry) Packets() uint64 { return e.packets }

// Bytes reports how many bytes matched the entry.
func (e *FlowEntry) Bytes() uint64 { return e.bytes }

// matchOrder orders entries the way Lookup prefers them: higher priority
// first, then earlier install sequence. Sequences are unique, so this is
// a strict total order.
func matchOrder(a, b *FlowEntry) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	return cmp.Compare(a.seq, b.seq)
}

// FlowTable is a priority-ordered flow rule table. Higher priority wins;
// among equal priorities, the earlier-installed rule wins, matching
// OpenFlow's undefined-order caveat resolved the way software switches do.
//
// Lookup goes through a tuple-space index: one hash map per distinct
// wildcard mask, keyed by the match fields with the wildcarded fields
// cleared, each bucket kept in match order. The best bucket head across
// the masks is exactly the first entry a linear scan of entries would
// match. The index is maintained incrementally by every mutation.
type FlowTable struct {
	entries []*FlowEntry // sorted by matchOrder
	tuples  []tuple
	nextSeq uint64
}

// tuple indexes the entries that share one wildcard mask.
type tuple struct {
	mask    openflow.Wildcards // Wildcards & WildAll
	keyMask flowKey            // key bits of the fields the mask leaves concrete
	buckets map[flowKey][]*FlowEntry
}

// flowKey is a Fields tuple packed into four words, so masking a key is
// four ANDs and a bucket key hashes as one 32-byte block.
type flowKey [4]uint64

func packFields(f *openflow.Fields) flowKey {
	mac := func(m packet.MAC) uint64 {
		return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 | uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
	}
	ip := func(a packet.IPv4Addr) uint64 {
		return uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3])
	}
	return flowKey{
		uint64(f.InPort)<<32 | uint64(f.EthType)<<16 | uint64(f.TPSrc),
		mac(f.EthSrc)<<16 | uint64(f.TPDst),
		mac(f.EthDst)<<8 | uint64(f.IPProto),
		ip(f.IPSrc)<<32 | ip(f.IPDst),
	}
}

func (k flowKey) and(m flowKey) flowKey {
	return flowKey{k[0] & m[0], k[1] & m[1], k[2] & m[2], k[3] & m[3]}
}

// fieldOnes sets one match field to all ones per wildcard bit.
var fieldOnes = [...]struct {
	wild openflow.Wildcards
	ones openflow.Fields
}{
	{openflow.WildInPort, openflow.Fields{InPort: ^uint32(0)}},
	{openflow.WildEthSrc, openflow.Fields{EthSrc: packet.BroadcastMAC}},
	{openflow.WildEthDst, openflow.Fields{EthDst: packet.BroadcastMAC}},
	{openflow.WildEthType, openflow.Fields{EthType: ^uint16(0)}},
	{openflow.WildIPSrc, openflow.Fields{IPSrc: packet.IPv4Addr{255, 255, 255, 255}}},
	{openflow.WildIPDst, openflow.Fields{IPDst: packet.IPv4Addr{255, 255, 255, 255}}},
	{openflow.WildIPProto, openflow.Fields{IPProto: ^uint8(0)}},
	{openflow.WildTPSrc, openflow.Fields{TPSrc: ^uint16(0)}},
	{openflow.WildTPDst, openflow.Fields{TPDst: ^uint16(0)}},
}

// maskKey returns the key bits of the fields w leaves concrete.
func maskKey(w openflow.Wildcards) flowKey {
	var m flowKey
	for _, f := range fieldOnes {
		if !w.Has(f.wild) {
			k := packFields(&f.ones)
			for i := range m {
				m[i] |= k[i]
			}
		}
	}
	return m
}

// Len reports the number of installed entries.
func (t *FlowTable) Len() int { return len(t.entries) }

// Entries returns the entries in match order. The returned slice is a
// copy; the entries themselves are shared.
func (t *FlowTable) Entries() []*FlowEntry {
	out := make([]*FlowEntry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Lookup returns the highest-priority entry matching the tuple, or nil.
func (t *FlowTable) Lookup(f openflow.Fields) *FlowEntry {
	if len(t.tuples) == 0 {
		return nil
	}
	var best *FlowEntry
	k := packFields(&f)
	for i := range t.tuples {
		tp := &t.tuples[i]
		if b := tp.buckets[k.and(tp.keyMask)]; len(b) > 0 && (best == nil || matchOrder(b[0], best) < 0) {
			best = b[0]
		}
	}
	return best
}

// bucket locates the index bucket of match m: its tuple (created when
// create is set, otherwise nil if there is none) and its masked key.
// Wildcard bits above WildAll are ignored, as Match.Matches ignores them.
func (t *FlowTable) bucket(m *openflow.Match, create bool) (*tuple, flowKey) {
	mask := m.Wildcards & openflow.WildAll
	var tp *tuple
	for i := range t.tuples {
		if t.tuples[i].mask == mask {
			tp = &t.tuples[i]
			break
		}
	}
	if tp == nil {
		if !create {
			return nil, flowKey{}
		}
		t.tuples = append(t.tuples, tuple{mask: mask, keyMask: maskKey(mask), buckets: make(map[flowKey][]*FlowEntry)})
		tp = &t.tuples[len(t.tuples)-1]
	}
	return tp, packFields(&m.Fields).and(tp.keyMask)
}

// index adds e to the tuple-space index.
func (t *FlowTable) index(e *FlowEntry) {
	tp, key := t.bucket(&e.Match, true)
	b := tp.buckets[key]
	i, _ := slices.BinarySearchFunc(b, e, matchOrder)
	tp.buckets[key] = slices.Insert(b, i, e)
}

// unindex removes e from the tuple-space index, dropping a bucket or a
// tuple once it is empty.
func (t *FlowTable) unindex(e *FlowEntry) {
	tp, key := t.bucket(&e.Match, false)
	b := tp.buckets[key]
	i, _ := slices.BinarySearchFunc(b, e, matchOrder)
	if b = slices.Delete(b, i, i+1); len(b) > 0 {
		tp.buckets[key] = b
		return
	}
	delete(tp.buckets, key)
	if len(tp.buckets) == 0 {
		mask := tp.mask
		t.tuples = slices.DeleteFunc(t.tuples, func(x tuple) bool { return x.mask == mask })
	}
}

// Apply executes a FlowMod against the table at virtual time now.
func (t *FlowTable) Apply(m *openflow.FlowMod, now time.Time) {
	switch m.Command {
	case openflow.FlowAdd:
		e := &FlowEntry{
			Match:       m.Match,
			Priority:    m.Priority,
			Actions:     append([]openflow.Action(nil), m.Actions...),
			IdleTimeout: time.Duration(m.IdleTimeout) * time.Second,
			HardTimeout: time.Duration(m.HardTimeout) * time.Second,
			created:     now,
			lastUsed:    now,
		}
		// Replace an identical (match, priority) entry in place, as
		// OFPFF_ADD does; the replacement keeps the old one's position.
		if tp, key := t.bucket(&m.Match, false); tp != nil {
			b := tp.buckets[key]
			for i, old := range b {
				if old.Priority == e.Priority && old.Match == e.Match {
					e.seq = old.seq
					b[i] = e
					j, _ := slices.BinarySearchFunc(t.entries, old, matchOrder)
					t.entries[j] = e
					return
				}
			}
		}
		e.seq = t.nextSeq
		t.nextSeq++
		i, _ := slices.BinarySearchFunc(t.entries, e, matchOrder)
		t.entries = slices.Insert(t.entries, i, e)
		t.index(e)
	case openflow.FlowModify:
		for _, e := range t.entries {
			if e.Match == m.Match && e.Priority == m.Priority {
				e.Actions = append([]openflow.Action(nil), m.Actions...)
			}
		}
	case openflow.FlowDelete:
		kept := t.entries[:0]
		for _, e := range t.entries {
			if !matchSubsumes(m.Match, e.Match) {
				kept = append(kept, e)
			} else {
				t.unindex(e)
			}
		}
		t.entries = kept
	}
}

// matchSubsumes reports whether deletion pattern a covers entry match b:
// every field a constrains must be constrained to the same value in b.
func matchSubsumes(a, b openflow.Match) bool {
	if a.Wildcards.Has(openflow.WildAll) {
		return true
	}
	// A field concrete in a must be concrete and equal in b.
	type field struct {
		wild  openflow.Wildcards
		equal bool
	}
	fields := []field{
		{openflow.WildInPort, a.Fields.InPort == b.Fields.InPort},
		{openflow.WildEthSrc, a.Fields.EthSrc == b.Fields.EthSrc},
		{openflow.WildEthDst, a.Fields.EthDst == b.Fields.EthDst},
		{openflow.WildEthType, a.Fields.EthType == b.Fields.EthType},
		{openflow.WildIPSrc, a.Fields.IPSrc == b.Fields.IPSrc},
		{openflow.WildIPDst, a.Fields.IPDst == b.Fields.IPDst},
		{openflow.WildIPProto, a.Fields.IPProto == b.Fields.IPProto},
		{openflow.WildTPSrc, a.Fields.TPSrc == b.Fields.TPSrc},
		{openflow.WildTPDst, a.Fields.TPDst == b.Fields.TPDst},
	}
	for _, f := range fields {
		if !a.Wildcards.Has(f.wild) {
			if b.Wildcards.Has(f.wild) || !f.equal {
				return false
			}
		}
	}
	return true
}

// Hit records a packet matching the entry.
func (e *FlowEntry) Hit(bytes int, now time.Time) {
	e.packets++
	e.bytes += uint64(bytes)
	e.lastUsed = now
}

// Expire removes and returns entries whose idle or hard timeout elapsed.
func (t *FlowTable) Expire(now time.Time) []*FlowEntry {
	var expired []*FlowEntry
	kept := t.entries[:0]
	for _, e := range t.entries {
		idleDead := e.IdleTimeout > 0 && now.Sub(e.lastUsed) >= e.IdleTimeout
		hardDead := e.HardTimeout > 0 && now.Sub(e.created) >= e.HardTimeout
		if idleDead || hardDead {
			expired = append(expired, e)
			t.unindex(e)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return expired
}

// Stats snapshots the table's counters for a flow-stats reply.
func (t *FlowTable) Stats(now time.Time) []openflow.FlowStats {
	out := make([]openflow.FlowStats, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, openflow.FlowStats{
			Match:    e.Match,
			Priority: e.Priority,
			Packets:  e.packets,
			Bytes:    e.bytes,
			Duration: now.Sub(e.created),
		})
	}
	return out
}
