package obs

import (
	"testing"
	"time"
)

// The registry sits on the per-event hot paths of the kernel, the
// controller and every switch port; these benchmarks pin the cost of one
// recording operation (should be a few ns, zero allocations).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_latency")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%20) * time.Millisecond)
	}
}
