package obs

import (
	"os"
	"path/filepath"
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

	m := MergeAll(a, nil, b)
	if got := m.Counter("c_total").Value(); got != 5 {
		t.Fatalf("merged counter = %d, want 5", got)
	}
	h := m.Histogram("h")
	if h.Count() != 2 || h.Sum() != 3*time.Millisecond {
		t.Fatalf("merged histogram count=%d sum=%s", h.Count(), h.Sum())
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

	dir := t.TempDir()
	for path, want := range map[string]string{
		filepath.Join(dir, "m.csv"):   csv.String(),
		filepath.Join(dir, "m.jsonl"): jsonl.String(),
		filepath.Join(dir, "m.txt"):   jsonl.String(),
	} {
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("WriteFile(%s) = %q, %v; want %q", path, got, err, want)
		}
	}
}
