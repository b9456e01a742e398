package obs

import (
	"strings"
	"testing"
	"time"

	"sdntamper/internal/sim"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a_total").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(3)
	g.Add(-1)
	g.SetMax(2) // below current: no-op
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after SetMax = %d, want 9", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWithBuckets("lat", []time.Duration{time.Millisecond, 10 * time.Millisecond})
	for _, d := range []time.Duration{
		500 * time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond,
	} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.buckets[0] != 1 || h.buckets[1] != 3 {
		t.Fatalf("buckets = %v", h.buckets)
	}
	if got := h.Quantile(1); got != 50*time.Millisecond {
		t.Fatalf("max quantile = %s", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name).Inc()
		}
		r.Gauge("g_b").Set(2)
		r.Gauge("g_a").Set(1)
		r.Histogram("h").Observe(3 * time.Millisecond)
		var b strings.Builder
		if err := r.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := build([]string{"z_total", "a_total", `m_total{k="v"}`})
	b := build([]string{`m_total{k="v"}`, "z_total", "a_total"})
	if a != b {
		t.Fatalf("snapshot depends on creation order:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 1",
		`m_total{k="v"} 1`,
		"g_a 1",
		"h_bucket{le=\"0.005\"} 1",
		"h_count 1",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("exposition missing %q:\n%s", want, a)
		}
	}
}

func TestMergeSumsAndConcatenates(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c_total").Add(2)
	b.Counter("c_total").Add(3)
	a.Histogram("h").Observe(time.Millisecond)
	b.Histogram("h").Observe(2 * time.Millisecond)
	a.Events().Publish(Event{At: 1, Kind: KindPacket, Name: "p1"})
	b.Events().Publish(Event{At: 2, Kind: KindPacket, Name: "p2"})

	m := MergeAll(a, nil, b)
	if got := m.Counter("c_total").Value(); got != 5 {
		t.Fatalf("merged counter = %d, want 5", got)
	}
	h := m.Histogram("h")
	if h.Count() != 2 || h.Sum() != 3*time.Millisecond {
		t.Fatalf("merged histogram count=%d sum=%s", h.Count(), h.Sum())
	}
	events := m.Events().Events()
	if len(events) != 2 || events[0].Name != "p1" || events[1].Name != "p2" {
		t.Fatalf("merged events = %+v", events)
	}
}

func TestBusRingEvictsOldest(t *testing.T) {
	b := NewBus(3)
	for i := 0; i < 5; i++ {
		b.Publish(Event{At: time.Duration(i), Kind: KindKernel, Name: "e"})
	}
	events := b.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	if events[0].At != 2 || events[2].At != 4 {
		t.Fatalf("wrong retention window: %+v", events)
	}
	if b.Total() != 5 {
		t.Fatalf("total = %d, want 5", b.Total())
	}
	var seen int
	b.Subscribe(func(Event) { seen++ })
	b.Publish(Event{At: 9, Kind: KindKernel, Name: "e"})
	if seen != 1 {
		t.Fatalf("subscriber fired %d times", seen)
	}
}

func TestInstrumentKernel(t *testing.T) {
	r := NewRegistry()
	k := sim.New()
	InstrumentKernel(r, k)
	var chained int
	prev := k.StepHook()
	k.SetStepHook(func() {
		chained++
		prev()
	})
	for i := 0; i < 4; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, func() {
			k.Schedule(time.Microsecond, func() {})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Counter(MetricSimEvents).Value(); got != k.Executed() {
		t.Fatalf("events counter = %d, executed = %d", got, k.Executed())
	}
	if chained == 0 {
		t.Fatal("stacked hook never ran")
	}
	if r.Gauge(MetricSimQueueDepthPeak).Value() < r.Gauge(MetricSimQueueDepth).Value() {
		t.Fatal("peak below current depth")
	}
}

func TestWriteFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter(`x_total{q="a,b"}`).Inc()
	r.Gauge("lvl").Set(-2)
	r.Histogram("h").Observe(7 * time.Millisecond)
	snap := r.Snapshot()

	var jsonl, csv strings.Builder
	if err := snap.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"type":"histogram","name":"h","count":1`) {
		t.Fatalf("jsonl: %s", jsonl.String())
	}
	if !strings.Contains(csv.String(), `counter,"x_total{q=\"a,b\"}",1`) {
		t.Fatalf("csv quoting: %s", csv.String())
	}

	var ev strings.Builder
	err := WriteEventsJSONL(&ev, []Event{{At: 1500 * time.Microsecond, Kind: KindVerdict, Module: "m", Name: "n", DPID: 2, Port: 3, Detail: `d"q`}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"at_us":1500,"kind":"verdict","module":"m","name":"n","dpid":"0x2","port":3,"detail":"d\"q"}` + "\n"
	if ev.String() != want {
		t.Fatalf("events jsonl = %q, want %q", ev.String(), want)
	}
}

// TestBusRingAllocatedOnFirstPublish pins that a registry which never
// publishes holds no event ring: most registries (switches, hosts, shard
// kernels) only count.
func TestBusRingAllocatedOnFirstPublish(t *testing.T) {
	r := NewRegistry()
	b := r.Events()
	if b.ring != nil {
		t.Fatalf("fresh registry holds a %d-event ring", len(b.ring))
	}
	if evs := b.Events(); len(evs) != 0 || b.Total() != 0 {
		t.Fatalf("empty bus reports %d events, total %d", len(evs), b.Total())
	}
	b.Publish(Event{Kind: KindKernel, Name: "e"})
	if len(b.ring) != DefaultBusCapacity {
		t.Fatalf("ring holds %d slots after the first publish, want %d", len(b.ring), DefaultBusCapacity)
	}
	if evs := b.Events(); len(evs) != 1 || evs[0].Name != "e" {
		t.Fatalf("events = %+v", evs)
	}
}
