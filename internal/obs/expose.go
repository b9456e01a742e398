package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Snapshot is a canonical, render-ready copy of a registry's state:
// every metric sorted by name, histograms expanded to cumulative bucket
// counts plus summary quantiles. Two registries with equal contents
// produce byte-identical snapshots, which is what the determinism tests
// pin across worker counts.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value int64
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name    string
	Bounds  []time.Duration
	Buckets []uint64 // cumulative: observations <= Bounds[i]
	Count   uint64
	Sum     time.Duration
	P50     time.Duration
	P99     time.Duration
	Max     time.Duration
}

// Snapshot renders the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	for _, name := range r.counterNames() {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: r.counters[name].v})
	}
	for _, name := range r.gaugeNames() {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: r.gauges[name].v})
	}
	for _, name := range r.histNames() {
		h := r.hists[name]
		series := h.Series()
		hv := HistogramValue{
			Name:    name,
			Bounds:  append([]time.Duration(nil), h.bounds...),
			Buckets: append([]uint64(nil), h.buckets...),
			Count:   h.count,
			Sum:     h.sum,
			P50:     series.Quantile(0.5),
			P99:     series.Quantile(0.99),
			Max:     series.Max(),
		}
		s.Histograms = append(s.Histograms, hv)
	}
	return s
}

// splitName separates a metric name from its brace-delimited label set,
// returning the base name and the raw label body (empty when unlabeled).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// secs renders a duration as Prometheus seconds.
func secs(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histograms expand to the conventional
// name_bucket/name_sum/name_count triple with le labels in seconds.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	typed := make(map[string]bool)
	emitType := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, c := range s.Counters {
		base, _ := splitName(c.Name)
		emitType(base, "counter")
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		base, _ := splitName(g.Name)
		emitType(base, "gauge")
		fmt.Fprintf(w, "%s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		base, labels := splitName(h.Name)
		emitType(base, "histogram")
		sep := ""
		if labels != "" {
			sep = ","
		}
		for i, bound := range h.Bounds {
			fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", base, labels, sep, secs(bound), h.Buckets[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", base, labels, sep, h.Count)
		if labels != "" {
			fmt.Fprintf(w, "%s_sum{%s} %s\n", base, labels, secs(h.Sum))
			fmt.Fprintf(w, "%s_count{%s} %d\n", base, labels, h.Count)
		} else {
			fmt.Fprintf(w, "%s_sum %s\n", base, secs(h.Sum))
			fmt.Fprintf(w, "%s_count %d\n", base, h.Count)
		}
	}
	return nil
}

// WriteJSONL renders the snapshot as JSON Lines: one object per metric,
// in snapshot (sorted-name) order. Durations are microseconds, so the
// figures' millisecond-scale latencies stay readable without float noise.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	for _, c := range s.Counters {
		fmt.Fprintf(w, "{\"type\":\"counter\",\"name\":%s,\"value\":%d}\n", strconv.Quote(c.Name), c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "{\"type\":\"gauge\",\"name\":%s,\"value\":%d}\n", strconv.Quote(g.Name), g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "{\"type\":\"histogram\",\"name\":%s,\"count\":%d,\"sum_us\":%d,\"p50_us\":%d,\"p99_us\":%d,\"max_us\":%d,\"buckets\":[",
			strconv.Quote(h.Name), h.Count, h.Sum.Microseconds(),
			h.P50.Microseconds(), h.P99.Microseconds(), h.Max.Microseconds())
		for i, bound := range h.Bounds {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "{\"le_us\":%d,\"n\":%d}", bound.Microseconds(), h.Buckets[i])
		}
		io.WriteString(w, "]}\n")
	}
	return nil
}

// WriteCSV renders the snapshot as CSV with a fixed header. Histograms
// contribute one row per summary statistic rather than per bucket, so
// the file stays spreadsheet-shaped.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "type,name,value\n"); err != nil {
		return err
	}
	quote := func(name string) string {
		if strings.ContainsAny(name, ",\"") {
			return strconv.Quote(name)
		}
		return name
	}
	for _, c := range s.Counters {
		fmt.Fprintf(w, "counter,%s,%d\n", quote(c.Name), c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "gauge,%s,%d\n", quote(g.Name), g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "histogram_count,%s,%d\n", quote(h.Name), h.Count)
		fmt.Fprintf(w, "histogram_sum_us,%s,%d\n", quote(h.Name), h.Sum.Microseconds())
		fmt.Fprintf(w, "histogram_p50_us,%s,%d\n", quote(h.Name), h.P50.Microseconds())
		fmt.Fprintf(w, "histogram_p99_us,%s,%d\n", quote(h.Name), h.P99.Microseconds())
		fmt.Fprintf(w, "histogram_max_us,%s,%d\n", quote(h.Name), h.Max.Microseconds())
	}
	return nil
}

// WriteFile writes the snapshot to path: CSV for a .csv suffix, JSON
// Lines otherwise.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = s.WriteCSV(f)
	} else {
		err = s.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
