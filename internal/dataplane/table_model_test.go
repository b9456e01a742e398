package dataplane

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sdntamper/internal/openflow"
	"sdntamper/internal/packet"
)

// refTable is the linear-scan flow table the tuple-space index replaced,
// kept verbatim as the model: entries in a slice re-sorted stably by
// priority on every add, Lookup by first match.
type refTable struct{ entries []*FlowEntry }

func (t *refTable) Lookup(f openflow.Fields) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.Matches(f) {
			return e
		}
	}
	return nil
}

func (t *refTable) Apply(m *openflow.FlowMod, now time.Time) {
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
		for i, old := range t.entries {
			if old.Priority == e.Priority && old.Match == e.Match {
				t.entries[i] = e
				return
			}
		}
		t.entries = append(t.entries, e)
		sort.SliceStable(t.entries, func(i, j int) bool {
			return t.entries[i].Priority > t.entries[j].Priority
		})
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
			}
		}
		t.entries = kept
	}
}

func (t *refTable) Expire(now time.Time) []*FlowEntry {
	var expired []*FlowEntry
	kept := t.entries[:0]
	for _, e := range t.entries {
		idleDead := e.IdleTimeout > 0 && now.Sub(e.lastUsed) >= e.IdleTimeout
		hardDead := e.HardTimeout > 0 && now.Sub(e.created) >= e.HardTimeout
		if idleDead || hardDead {
			expired = append(expired, e)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return expired
}

// entryView is the externally visible state of an entry, for comparing
// the two tables' entries (which are distinct objects).
type entryView struct {
	Match      openflow.Match
	Priority   uint16
	Actions    []openflow.Action
	Idle, Hard time.Duration
	Packets    uint64
}

func views(es []*FlowEntry) []entryView {
	var out []entryView
	for _, e := range es {
		out = append(out, entryView{e.Match, e.Priority, e.Actions, e.IdleTimeout, e.HardTimeout, e.packets})
	}
	return out
}

// modelGen draws fields and matches from a small universe so lookups hit,
// (match, priority) pairs repeat and equal-priority ties are common.
type modelGen struct{ rng *rand.Rand }

func (g modelGen) fields() openflow.Fields {
	r := g.rng
	return openflow.Fields{
		InPort:  uint32(1 + r.Intn(3)),
		EthSrc:  packet.MAC{0, 0, 0, 0, 0, byte(1 + r.Intn(2))},
		EthDst:  packet.MAC{0, 0, 0, 0, 0, byte(1 + r.Intn(4))},
		EthType: []uint16{0x0800, 0x0806}[r.Intn(2)],
		IPSrc:   packet.IPv4Addr{10, 0, 0, byte(1 + r.Intn(2))},
		IPDst:   packet.IPv4Addr{10, 0, 0, byte(1 + r.Intn(3))},
		IPProto: []uint8{1, 6, 17}[r.Intn(3)],
		TPSrc:   uint16(r.Intn(2)),
		TPDst:   uint16(80 + r.Intn(2)),
	}
}

// match picks a wildcard mask — the controller's dst-only and the rate
// monitor's in-port-only masks most often — sometimes with high bits set,
// and keeps random (often non-zero) values in the wildcarded fields.
func (g modelGen) match() openflow.Match {
	r := g.rng
	masks := []openflow.Wildcards{
		openflow.WildAll &^ openflow.WildEthDst,
		openflow.WildAll &^ openflow.WildEthDst,
		openflow.WildAll &^ openflow.WildInPort,
		openflow.WildAll &^ (openflow.WildIPDst | openflow.WildIPProto | openflow.WildTPDst),
		openflow.WildAll,
		0,
		openflow.Wildcards(r.Intn(int(openflow.WildAll) + 1)),
	}
	m := openflow.Match{Wildcards: masks[r.Intn(len(masks))], Fields: g.fields()}
	if r.Intn(4) == 0 {
		m.Wildcards |= openflow.Wildcards(r.Uint32()) &^ openflow.WildAll
	}
	return m
}

// TestFlowTableMatchesLinearModel runs random add/replace/modify/delete/
// expire/hit sequences against the tuple-space table and the linear-scan
// model. After every step the entry lists must agree in order, Lookup
// must return the same *FlowEntry as a first-match scan over Entries(),
// and that entry must be the one the model finds.
func TestFlowTableMatchesLinearModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := modelGen{rand.New(rand.NewSource(seed))}
		r := g.rng
		var tbl FlowTable
		var ref refTable
		now := time.Unix(0, 0)
		id := uint32(0)
		masksSeen := 0
		existing := func() (openflow.Match, uint16, bool) {
			es := tbl.Entries()
			if len(es) == 0 {
				return openflow.Match{}, 0, false
			}
			e := es[r.Intn(len(es))]
			return e.Match, e.Priority, true
		}
		for step := 0; step < 400; step++ {
			var op string
			switch k := r.Intn(20); {
			case k < 8:
				op = "add"
				id++
				fm := &openflow.FlowMod{
					Command:     openflow.FlowAdd,
					Match:       g.match(),
					Priority:    []uint16{1, 10, 10, 10, 100}[r.Intn(5)],
					IdleTimeout: uint16(r.Intn(3) * 5),
					HardTimeout: uint16(r.Intn(3) * 7),
					Actions:     []openflow.Action{openflow.Output(id)},
				}
				if m, p, ok := existing(); ok && r.Intn(3) == 0 {
					op, fm.Match, fm.Priority = "replace", m, p
				}
				tbl.Apply(fm, now)
				ref.Apply(fm, now)
			case k < 10:
				op = "modify"
				id++
				m, p, ok := existing()
				if !ok || r.Intn(4) == 0 {
					m, p = g.match(), 10
				}
				fm := &openflow.FlowMod{Command: openflow.FlowModify, Match: m, Priority: p, Actions: []openflow.Action{openflow.Output(id)}}
				tbl.Apply(fm, now)
				ref.Apply(fm, now)
			case k < 12:
				op = "delete"
				m, _, ok := existing()
				if !ok || r.Intn(2) == 0 {
					m = g.match()
				}
				fm := &openflow.FlowMod{Command: openflow.FlowDelete, Match: m}
				tbl.Apply(fm, now)
				ref.Apply(fm, now)
			case k < 14:
				op = "expire"
				now = now.Add(time.Duration(1+r.Intn(4)) * time.Second)
				if got, want := views(tbl.Expire(now)), views(ref.Expire(now)); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: expired\n got %+v\nwant %+v", seed, step, got, want)
				}
			default:
				op = "hit"
				f := g.fields()
				if e, m := tbl.Lookup(f), ref.Lookup(f); e != nil && m != nil {
					e.Hit(64, now)
					m.Hit(64, now)
				}
			}
			if got, want := views(tbl.Entries()), views(ref.entries); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): entries\n got %+v\nwant %+v", seed, step, op, got, want)
			}
			if n := len(tbl.tuples); n > masksSeen {
				masksSeen = n
			}
			for i := 0; i < 8; i++ {
				f := g.fields()
				got := tbl.Lookup(f)
				var scan *FlowEntry
				for _, e := range tbl.Entries() {
					if e.Match.Matches(f) {
						scan = e
						break
					}
				}
				if got != scan {
					t.Fatalf("seed %d step %d (%s): Lookup(%+v) = %p, linear scan %p", seed, step, op, f, got, scan)
				}
				if want := ref.Lookup(f); (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(views([]*FlowEntry{got}), views([]*FlowEntry{want})) {
					t.Fatalf("seed %d step %d (%s): Lookup(%+v) disagrees with the model", seed, step, op, f)
				}
			}
		}
		if masksSeen < 3 {
			t.Fatalf("seed %d: at most %d masks were live at once; the walk must mix masks", seed, masksSeen)
		}
	}
}

// TestFlowTableEmptyDoesNotAllocate: a switch that never receives a flow
// rule carries a zero FlowTable, which must stay allocation-free.
func TestFlowTableEmptyDoesNotAllocate(t *testing.T) {
	var tbl FlowTable
	f := openflow.Fields{InPort: 1}
	if n := testing.AllocsPerRun(100, func() {
		tbl.Lookup(f)
		tbl.Expire(time.Unix(0, 0))
	}); n != 0 {
		t.Fatalf("empty table allocates %v per lookup+expire", n)
	}
	if tbl.tuples != nil || tbl.entries != nil {
		t.Fatal("lookup or expire built index state on an empty table")
	}
}
