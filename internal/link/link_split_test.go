package link

import (
	"math/rand"
	"testing"
	"time"

	"sdntamper/internal/sim"
)

func newSplitPair(t *testing.T, latency sim.Sampler) (*sim.ShardGroup, *Endpoint, *Endpoint, *recorder, *recorder) {
	t.Helper()
	k0, k1 := sim.New(), sim.New()
	g := sim.NewShardGroup(k0, k1)
	l := NewLink(k0, latency)
	l.SetRands(rand.New(rand.NewSource(101)), rand.New(rand.NewSource(102)))
	l.Split(g, 0, 1, k1)
	ra := &recorder{kernel: k0}
	rb := &recorder{kernel: k1}
	ea := NewEndpoint(l, EndA, ra)
	eb := NewEndpoint(l, EndB, rb)
	return g, ea, eb, ra, rb
}

func TestSplitLinkDeliversAcrossShards(t *testing.T) {
	g, ea, eb, ra, rb := newSplitPair(t, sim.Const(5*time.Millisecond))
	g.Kernel(0).Schedule(0, func() { ea.Send(NewFrame([]byte{1, 2})) })
	g.Kernel(1).Schedule(time.Millisecond, func() { eb.Send(NewFrame([]byte{3})) })
	if err := g.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 1 || rb.times[0] != 5*time.Millisecond {
		t.Fatalf("B: frames=%v times=%v", rb.frames, rb.times)
	}
	if len(ra.frames) != 1 || ra.times[0] != 6*time.Millisecond {
		t.Fatalf("A: frames=%v times=%v", ra.frames, ra.times)
	}
	if rb.frames[0][0] != 1 || ra.frames[0][0] != 3 {
		t.Fatal("payloads crossed or corrupted")
	}
}

// TestSplitLinkParallelRace exercises concurrent bidirectional traffic
// under the race detector: both shard goroutines send every millisecond
// for a simulated second.
func TestSplitLinkParallelRace(t *testing.T) {
	g, ea, eb, ra, rb := newSplitPair(t, sim.Normal{Mean: 5 * time.Millisecond, Std: time.Millisecond, Min: 2 * time.Millisecond})
	g.SetParallel(true)
	g.Kernel(0).NewTicker(time.Millisecond, func() { ea.Send(NewFrame([]byte{0xa})) })
	g.Kernel(1).NewTicker(time.Millisecond, func() { eb.Send(NewFrame([]byte{0xb})) })
	if err := g.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(ra.frames) < 900 || len(rb.frames) < 900 {
		t.Fatalf("frames a=%d b=%d, want ~1000 each", len(ra.frames), len(rb.frames))
	}
}

// TestSplitLinkShardCountInvariance: with per-direction RNG streams, the
// same traffic pattern on a single-kernel link and on a split link must
// draw identical latencies, so arrival times match exactly.
func TestSplitLinkShardCountInvariance(t *testing.T) {
	latency := sim.Normal{Mean: 5 * time.Millisecond, Std: time.Millisecond, Min: 2 * time.Millisecond}
	arrivals := func(split bool) []time.Duration {
		k0 := sim.New()
		var g *sim.ShardGroup
		var kB *sim.Kernel
		l := NewLink(k0, latency)
		l.SetRands(rand.New(rand.NewSource(101)), rand.New(rand.NewSource(102)))
		if split {
			kB = sim.New()
			g = sim.NewShardGroup(k0, kB)
			l.Split(g, 0, 1, kB)
		} else {
			kB = k0
			g = sim.NewShardGroup(k0)
		}
		rb := &recorder{kernel: kB}
		NewEndpoint(l, EndA, &recorder{kernel: k0})
		NewEndpoint(l, EndB, rb)
		k0.NewTicker(10*time.Millisecond, func() { l.Send(EndA, NewFrame([]byte{1})) })
		if err := g.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		return rb.times
	}
	serial := arrivals(false)
	split := arrivals(true)
	if len(serial) != len(split) || len(serial) == 0 {
		t.Fatalf("deliveries: serial %d, split %d", len(serial), len(split))
	}
	for i := range serial {
		if serial[i] != split[i] {
			t.Fatalf("arrival %d: serial %v, split %v", i, serial[i], split[i])
		}
	}
}

func TestSplitLinkRejectsCarrierFlap(t *testing.T) {
	_, ea, _, _, _ := newSplitPair(t, sim.Const(time.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("SetCarrier on a split link did not panic")
		}
	}()
	ea.SetCarrier(false)
}

func TestSplitRequiresBoundedLatency(t *testing.T) {
	k0, k1 := sim.New(), sim.New()
	g := sim.NewShardGroup(k0, k1)
	l := NewLink(k0, sim.Const(0)) // zero bound: no conservative lookahead
	l.SetRands(rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
	defer func() {
		if recover() == nil {
			t.Fatal("Split with zero-latency link did not panic")
		}
	}()
	l.Split(g, 0, 1, k1)
}

func TestSplitChannelDelivers(t *testing.T) {
	k0, k1 := sim.New(), sim.New()
	g := sim.NewShardGroup(k0, k1)
	c := NewChannel(k0, sim.Const(2*time.Millisecond))
	c.SetRands(rand.New(rand.NewSource(5)), rand.New(rand.NewSource(6)))
	c.Split(g, 0, 1, k1)
	var gotB []byte
	var atB time.Duration
	c.OnReceive(EndB, func(data []byte) { gotB = append([]byte(nil), data...); atB = k1.Elapsed() })
	var atA time.Duration
	c.OnReceive(EndA, func([]byte) { atA = k0.Elapsed() })
	k0.Schedule(0, func() { c.Send(EndA, []byte{7}) })
	// SendAfter's extra delay elapses on the sender's shard (B).
	k1.Schedule(0, func() { c.SendAfter(EndB, 3*time.Millisecond, []byte{8}) })
	if err := g.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(gotB) != 1 || gotB[0] != 7 || atB != 2*time.Millisecond {
		t.Fatalf("B got %v at %v", gotB, atB)
	}
	if atA != 5*time.Millisecond {
		t.Fatalf("A delivery at %v, want 5ms", atA)
	}
}
