package link

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sdntamper/internal/sim"
)

// pipeUnderTest is the pipe surface Link and Channel share.
type pipeUnderTest interface {
	SetRands(a, b *rand.Rand)
	Split(group *sim.ShardGroup, shardA, shardB int, kernelB *sim.Kernel)
	SetLossRate(p float64)
	LossRate() float64
	SetLatency(s sim.Sampler)
	Latency() sim.Sampler
	Dropped() uint64
}

var pipeKinds = []struct {
	name string
	new  func(k *sim.Kernel, latency sim.Sampler) pipeUnderTest
}{
	{"link", func(k *sim.Kernel, latency sim.Sampler) pipeUnderTest { return NewLink(k, latency) }},
	{"channel", func(k *sim.Kernel, latency sim.Sampler) pipeUnderTest { return NewChannel(k, latency) }},
}

// pipeFixture is one link or channel with per-direction RNG streams
// seeded 11 (end A) and 12 (end B), split across two shards or not, and
// a recorder on each end. Arrays are indexed by End.
type pipeFixture struct {
	p       pipeUnderTest
	g       *sim.ShardGroup
	kernels [3]*sim.Kernel
	rec     [3]*recorder
	send    func(from End)
}

const fixtureSeedA, fixtureSeedB = 11, 12

func newPipeFixture(t *testing.T, kind int, split bool, latency sim.Sampler) *pipeFixture {
	t.Helper()
	kA, kB := sim.New(), sim.New()
	fx := &pipeFixture{}
	if split {
		fx.g = sim.NewShardGroup(kA, kB)
	} else {
		kB = kA
		fx.g = sim.NewShardGroup(kA)
	}
	fx.kernels[EndA], fx.kernels[EndB] = kA, kB
	fx.rec[EndA], fx.rec[EndB] = &recorder{kernel: kA}, &recorder{kernel: kB}
	fx.p = pipeKinds[kind].new(kA, latency)
	switch p := fx.p.(type) {
	case *Link:
		p.Attach(EndA, fx.rec[EndA])
		p.Attach(EndB, fx.rec[EndB])
		fx.send = func(from End) { p.Send(from, NewFrame([]byte{1})) }
	case *Channel:
		for _, end := range []End{EndA, EndB} {
			r := fx.rec[end]
			p.OnReceive(end, func(b []byte) { r.frames, r.times = append(r.frames, b), append(r.times, r.kernel.Elapsed()) })
		}
		fx.send = func(from End) { p.Send(from, []byte{1}) }
	}
	fx.p.SetRands(rand.New(rand.NewSource(fixtureSeedA)), rand.New(rand.NewSource(fixtureSeedB)))
	if split {
		fx.p.Split(fx.g, 0, 1, kB)
	}
	return fx
}

// sendAt schedules a send from the given end on that end's kernel.
func (fx *pipeFixture) sendAt(from End, at time.Duration) {
	fx.kernels[from].Schedule(at, func() { fx.send(from) })
}

func (fx *pipeFixture) run(t *testing.T) {
	t.Helper()
	if err := fx.g.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// forEachPipe runs fn on every pipe kind, unsplit and split.
func forEachPipe(t *testing.T, fn func(t *testing.T, kind int, split bool)) {
	for kind, pk := range pipeKinds {
		for _, split := range []bool{false, true} {
			name := pk.name
			if split {
				name += "/split"
			}
			t.Run(name, func(t *testing.T) { fn(t, kind, split) })
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestPipeLossRateClamp(t *testing.T) {
	forEachPipe(t, func(t *testing.T, kind int, split bool) {
		fx := newPipeFixture(t, kind, split, sim.Const(time.Millisecond))
		for _, c := range []struct{ in, want float64 }{{-0.5, 0}, {1.5, 1}, {0.25, 0.25}} {
			fx.p.SetLossRate(c.in)
			if got := fx.p.LossRate(); got != c.want {
				t.Errorf("SetLossRate(%v): LossRate = %v, want %v", c.in, got, c.want)
			}
		}
	})
}

// TestPipeDroppedPerDirection counts drops from both ends; split pipes
// run their shards in parallel, so the race detector sees both
// directions counting at once.
func TestPipeDroppedPerDirection(t *testing.T) {
	forEachPipe(t, func(t *testing.T, kind int, split bool) {
		fx := newPipeFixture(t, kind, split, sim.Const(time.Millisecond))
		fx.g.SetParallel(split)
		fx.p.SetLossRate(1)
		for i := 0; i < 3; i++ {
			fx.sendAt(EndA, time.Duration(i)*time.Millisecond)
		}
		for i := 0; i < 2; i++ {
			fx.sendAt(EndB, time.Duration(i)*time.Millisecond)
		}
		fx.run(t)
		if got := fx.p.Dropped(); got != 5 {
			t.Errorf("Dropped = %d, want 5", got)
		}
		if n := len(fx.rec[EndA].times) + len(fx.rec[EndB].times); n != 0 {
			t.Errorf("%d sends arrived at loss 1", n)
		}
	})
}

func TestPipeSetLatencyLookahead(t *testing.T) {
	forEachPipe(t, func(t *testing.T, kind int, split bool) {
		fx := newPipeFixture(t, kind, split, sim.Const(2*time.Millisecond))
		narrow := sim.Const(time.Millisecond)
		if split {
			mustPanic(t, "SetLatency below the split lookahead", func() { fx.p.SetLatency(narrow) })
			mustPanic(t, "SetLatency(nil) on a split pipe", func() { fx.p.SetLatency(nil) })
			for _, s := range []sim.Sampler{sim.Uniform{Lo: 2 * time.Millisecond, Hi: 4 * time.Millisecond}, sim.Const(3 * time.Millisecond), sim.Const(2 * time.Millisecond)} {
				fx.p.SetLatency(s)
				if fx.p.Latency() != s {
					t.Errorf("SetLatency(%v) not applied", s)
				}
			}
			return
		}
		fx.p.SetLatency(narrow)
		if fx.p.Latency() != narrow {
			t.Error("SetLatency on an unsplit pipe not applied")
		}
		fx.p.SetLatency(nil)
		if fx.p.Latency() != sim.Const(0) {
			t.Errorf("SetLatency(nil): Latency = %v, want Const(0)", fx.p.Latency())
		}
	})
}

// samplerFunc is a sampler with no stated lower bound.
type samplerFunc func(*rand.Rand) time.Duration

func (f samplerFunc) Sample(r *rand.Rand) time.Duration { return f(r) }

func TestPipeSplitPanics(t *testing.T) {
	for _, pk := range pipeKinds {
		t.Run(pk.name, func(t *testing.T) {
			split := func(latency sim.Sampler, rands bool) pipeUnderTest {
				k0, k1 := sim.New(), sim.New()
				p := pk.new(k0, latency)
				if rands {
					p.SetRands(rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
				}
				p.Split(sim.NewShardGroup(k0, k1), 0, 1, k1)
				return p
			}
			p := split(sim.Const(time.Millisecond), true)
			mustPanic(t, "second Split", func() { p.Split(sim.NewShardGroup(sim.New(), sim.New()), 0, 1, sim.New()) })
			mustPanic(t, "Split without SetRands", func() { split(sim.Const(time.Millisecond), false) })
			mustPanic(t, "Split with a zero-bound sampler", func() { split(sim.Const(0), true) })
			mustPanic(t, "Split with an unbounded sampler", func() {
				split(samplerFunc(func(*rand.Rand) time.Duration { return time.Millisecond }), true)
			})
		})
	}
}

// TestPipeDrawOrder pins the RNG contract every fingerprint rests on: a
// lossless send draws only its delay, and a lossy one draws Float64 for
// loss first and, if it survives, its delay — from the sending end's
// stream.
func TestPipeDrawOrder(t *testing.T) {
	latency := sim.Uniform{Lo: time.Millisecond, Hi: 5 * time.Millisecond}
	const sends = 50
	for _, loss := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			forEachPipe(t, func(t *testing.T, kind int, split bool) {
				fx := newPipeFixture(t, kind, split, latency)
				fx.p.SetLossRate(loss)
				// Sends 10 ms apart outpace the 5 ms worst-case delay, so
				// arrivals keep send order; B sends 3 ms after A.
				offset := [3]time.Duration{EndA: 0, EndB: 3 * time.Millisecond}
				for i := 0; i < sends; i++ {
					for _, from := range []End{EndA, EndB} {
						fx.sendAt(from, time.Duration(i)*10*time.Millisecond+offset[from])
					}
				}
				fx.run(t)
				var dropped uint64
				for from, seed := range map[End]int64{EndA: fixtureSeedA, EndB: fixtureSeedB} {
					ref := rand.New(rand.NewSource(seed))
					var want []time.Duration
					for i := 0; i < sends; i++ {
						if loss > 0 && ref.Float64() < loss {
							dropped++
							continue
						}
						want = append(want, time.Duration(i)*10*time.Millisecond+offset[from]+latency.Sample(ref))
					}
					got := fx.rec[from.other()].times
					if len(got) != len(want) {
						t.Fatalf("loss %v, from %d: %d arrivals, want %d", loss, from, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("loss %v, from %d: arrival %d at %v, want %v", loss, from, i, got[i], want[i])
						}
					}
				}
				if got := fx.p.Dropped(); got != dropped {
					t.Errorf("loss %v: Dropped = %d, want %d", loss, got, dropped)
				}
				if loss > 0 && (dropped == 0 || dropped == 2*sends) {
					t.Errorf("loss %v dropped %d of %d sends; the lossy case is degenerate", loss, dropped, 2*sends)
				}
			})
		})
	}
}
