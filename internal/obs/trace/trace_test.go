package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMixIDDeterministicAndNonZero(t *testing.T) {
	if MixID(1, 2, 3) != MixID(1, 2, 3) {
		t.Fatal("MixID is not deterministic")
	}
	if MixID(1, 2, 3) == MixID(3, 2, 1) {
		t.Fatal("MixID ignores tag order")
	}
	if MixID(1, 2) == MixID(1, 3) {
		t.Fatal("MixID ignores the last tag")
	}
	if MixID() == 0 || MixID(0) == 0 || MixID(0, 0, 0) == 0 {
		t.Fatal("MixID returned the zero (no-span) sentinel")
	}
	// A light collision sweep over a dense tag neighborhood.
	seen := make(map[uint64][3]uint64)
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 64; b++ {
			for c := uint64(0); c < 64; c++ {
				id := MixID(a, b, c)
				if prev, dup := seen[id]; dup {
					t.Fatalf("MixID(%d,%d,%d) collides with MixID(%v)", a, b, c, prev)
				}
				seen[id] = [3]uint64{a, b, c}
			}
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.SetClock(func() int64 { return 5 })
	r.SetCurrent(7)
	r.Emit(Span{ID: 1})
	r.Reset()
	if r.Now() != 0 || r.Current() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder reported state")
	}
	if r.Spans() != nil {
		t.Fatal("nil recorder retained spans")
	}
	if spans, total := r.SpansSince(0); spans != nil || total != 0 {
		t.Fatal("nil recorder streamed spans")
	}
}

func TestRecorderRingAndDrops(t *testing.T) {
	r := NewRecorder(4)
	if r.Spans() != nil {
		t.Fatal("fresh recorder retained spans")
	}
	for i := uint64(1); i <= 6; i++ {
		r.Emit(Span{ID: i})
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d, want 6", r.Total())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	got := r.Spans()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(i + 3); s.ID != want {
			t.Fatalf("retained[%d].ID = %d, want %d (oldest overwritten first)", i, s.ID, want)
		}
	}
	r.Reset()
	if r.Total() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("Reset did not clear the recorder")
	}
}

func TestRecorderDefaultCapacityLazyRing(t *testing.T) {
	r := NewRecorder(0)
	if r.ring != nil {
		t.Fatal("ring allocated before first emission")
	}
	r.Emit(Span{ID: 1})
	if len(r.ring) != DefaultCapacity {
		t.Fatalf("ring capacity = %d, want DefaultCapacity %d", len(r.ring), DefaultCapacity)
	}
}

func TestSpansSinceCursor(t *testing.T) {
	r := NewRecorder(4)
	spans, cursor := r.SpansSince(0)
	if len(spans) != 0 || cursor != 0 {
		t.Fatal("empty recorder streamed spans")
	}
	r.Emit(Span{ID: 1})
	r.Emit(Span{ID: 2})
	spans, cursor = r.SpansSince(cursor)
	if len(spans) != 2 || spans[0].ID != 1 || spans[1].ID != 2 {
		t.Fatalf("first read = %v", spans)
	}
	if spans, _ = r.SpansSince(cursor); len(spans) != 0 {
		t.Fatal("cursor read repeated spans")
	}
	// Overflow past the cursor: only retained spans are recoverable.
	for i := uint64(3); i <= 8; i++ {
		r.Emit(Span{ID: i})
	}
	spans, cursor = r.SpansSince(cursor)
	if len(spans) != 4 || spans[0].ID != 5 || spans[3].ID != 8 {
		t.Fatalf("post-overflow read = %v", spans)
	}
	if cursor != r.Total() {
		t.Fatalf("cursor = %d, want total %d", cursor, r.Total())
	}
}

func TestMergeSortsCanonically(t *testing.T) {
	a, b := NewRecorder(8), NewRecorder(8)
	a.Emit(Span{ID: 3, Start: 10, End: 20})
	a.Emit(Span{ID: 1, Start: 30, End: 30})
	b.Emit(Span{ID: 2, Start: 10, End: 15})
	b.Emit(Span{ID: 4, Start: 10, End: 20})
	got := Merge(a, nil, b)
	want := []uint64{2, 3, 4, 1} // (Start, End, ID) order
	if len(got) != len(want) {
		t.Fatalf("merged %d spans, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("merged[%d].ID = %d, want %d", i, got[i].ID, id)
		}
	}
}

func TestWriteJSONLFixedFormat(t *testing.T) {
	spans := []Span{
		{ID: 0xabc, Parent: 0, Start: 1500, End: 2500, Kind: KindLink, Name: "link.frame", Entity: 0xdead, Port: 3, Detail: `q"uote`},
	}
	var sb strings.Builder
	if err := WriteJSONL(&sb, spans); err != nil {
		t.Fatal(err)
	}
	want := `{"id":"0000000000000abc","parent":"0000000000000000","start":1500,"end":2500,"kind":"link","name":"link.frame","entity":"0xdead","port":3,"detail":"q\"uote"}` + "\n"
	if sb.String() != want {
		t.Fatalf("JSONL output:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestWriteChromeShape(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 1000, End: 3500, Kind: KindControl, Name: "lldp.emit"},
		{ID: 2, Parent: 1, Start: 2000, End: 2000, Kind: KindDefense, Name: "verdict.pass"},
	}
	var sb strings.Builder
	if err := WriteChrome(&sb, spans); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		`"displayTimeUnit":"ms"`,
		`"ph":"X"`,
		`"ts":1.000,"dur":2.500`,
		`"name":"lldp.emit"`,
		`"tid":5`, // defense track
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"kernel"}}`,
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Chrome export missing %q:\n%s", frag, out)
		}
	}
	if !strings.HasPrefix(out, "{") || !strings.HasSuffix(strings.TrimSpace(out), "]}") {
		t.Fatalf("Chrome export is not a closed JSON document:\n%s", out)
	}
}

func TestWriteFileBySuffix(t *testing.T) {
	spans := []Span{{ID: 1, Start: 1000, End: 2000, Kind: KindControl, Name: "lldp.emit"}}
	var jsonl, chrome strings.Builder
	if err := WriteJSONL(&jsonl, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&chrome, spans); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for path, want := range map[string]string{
		filepath.Join(dir, "t.jsonl"): jsonl.String(),
		filepath.Join(dir, "t.json"):  chrome.String(),
	} {
		var report strings.Builder
		if err := WriteFileReport(&report, path, spans, 3); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("WriteFile(%s) = %q, %v; want %q", path, got, err, want)
		}
		// CI's sample-trace step greps this text.
		if want := "trace: 1 spans written to " + path + " (3 dropped from the ring)\n"; report.String() != want {
			t.Fatalf("report = %q, want %q", report.String(), want)
		}
	}
}

func TestTimelineAndChain(t *testing.T) {
	// root -> a -> b, plus sibling c under a; unrelated x.
	spans := []Span{
		{ID: 10, Start: 0, End: 9, Name: "root"},
		{ID: 11, Parent: 10, Start: 1, End: 2, Name: "a"},
		{ID: 12, Parent: 11, Start: 3, End: 4, Name: "b"},
		{ID: 13, Parent: 11, Start: 5, End: 5, Name: "c"},
		{ID: 99, Start: 6, End: 7, Name: "x"},
	}
	chain := Chain(spans, 12)
	if len(chain) != 3 || chain[0].Name != "root" || chain[1].Name != "a" || chain[2].Name != "b" {
		t.Fatalf("chain = %v", chain)
	}
	tl := Timeline(spans, 12)
	if len(tl) != 4 {
		t.Fatalf("timeline has %d spans, want 4 (unrelated span leaked in?)", len(tl))
	}
	for _, s := range tl {
		if s.ID == 99 {
			t.Fatal("timeline includes a span from another root")
		}
	}
	if got := Timeline(spans, 424242); got != nil {
		t.Fatalf("timeline of unknown span = %v", got)
	}
	// Dangling parent: the orphan is its own effective root.
	orphan := []Span{{ID: 20, Parent: 404, Start: 0, End: 1, Name: "orphan"}}
	if c := Chain(orphan, 20); len(c) != 1 || c[0].Name != "orphan" {
		t.Fatalf("orphan chain = %v", c)
	}
	if tl := Timeline(orphan, 20); len(tl) != 1 {
		t.Fatalf("orphan timeline = %v", tl)
	}
	if got := FindByName(spans, "a"); len(got) != 1 || got[0].ID != 11 {
		t.Fatalf("FindByName = %v", got)
	}
}
