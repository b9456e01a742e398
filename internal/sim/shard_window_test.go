package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// fixedStrideRunFor is ShardGroup.RunFor as it was before windows opened
// at the next pending event: every window is exactly one lookahead long
// and starts where the previous one ended, whether or not any shard has
// work in it. It is kept as the reference the event-driven windows are
// checked against.
func fixedStrideRunFor(g *ShardGroup, d time.Duration) error {
	if d < 0 {
		d = 0
	}
	start := g.kernels[0].nowNs
	end := start + int64(d)
	stride := g.lookNs
	if stride <= 0 {
		stride = int64(d)
	}
	var workers *shardWorkers
	if g.parallel && len(g.kernels) > 1 {
		workers = startShardWorkers(g.kernels)
		defer workers.stop()
	}
	for now := start; now < end || now == start; {
		deadline := now + stride
		if deadline > end || stride == 0 {
			deadline = end
		}
		if workers != nil {
			workers.runWindow(deadline)
			var latest time.Time
			for _, f := range workers.finish {
				if f.After(latest) {
					latest = f
				}
			}
			for i, f := range workers.finish {
				g.health[i].EpochStallNs += latest.Sub(f).Nanoseconds()
			}
			for _, err := range workers.errs {
				if err != nil && g.firstErr == nil {
					g.firstErr = err
				}
			}
		} else {
			for _, k := range g.kernels {
				if err := k.runUntilNs(deadline); err != nil && g.firstErr == nil {
					g.firstErr = err
				}
			}
		}
		g.flush()
		g.sampleQueues()
		if now == deadline { // d == 0: single degenerate epoch
			break
		}
		now = deadline
	}
	err := g.firstErr
	g.firstErr = nil
	return err
}

// Due times in a windowWorld are distinct on every shard, because a
// same-instant tie between a flushed message and a local event is
// ordered by when the flush happens, which is exactly what differs
// between loop shapes. Every fresh event is due at a time congruent to
// its own tag modulo tagMod, and tags are unique per (shard, counter);
// the lookahead is a multiple of tagMod, so an exactly-lookahead post
// keeps its sender's residue and only extends that sender's chain.
const (
	tagMod       = 1 << 16
	tagShards    = 5
	tagBudget    = tagMod/tagShards - 1
	spawnBudget  = 600 // fresh tags a shard may draw while events spawn
	maxLiveLocal = 32  // cancel candidates kept per shard
)

// windowEv is one event of a windowWorld: it runs on shard and logs id.
type windowEv struct {
	shard int
	id    string
}

// windowWorld is a random cross-shard workload whose choices depend only
// on the per-shard event order: each shard draws from its own RNG, tag
// counter and cancel list, touched only by that shard's events (or by
// the test goroutine between runs), so serial and parallel windows see
// the same workload.
type windowWorld struct {
	g        *ShardGroup
	lookNs   int64
	rngs     []*rand.Rand
	counters []int
	live     [][]Event
	logs     [][]string
}

func newWindowWorld(seed int64, shards int, lookNs int64, parallel bool) *windowWorld {
	kernels := make([]*Kernel, shards)
	for i := range kernels {
		kernels[i] = New()
	}
	w := &windowWorld{
		g:        NewShardGroup(kernels...),
		lookNs:   lookNs,
		rngs:     make([]*rand.Rand, shards),
		counters: make([]int, shards),
		live:     make([][]Event, shards),
		logs:     make([][]string, shards),
	}
	w.g.RegisterCrossLatency(time.Duration(lookNs))
	w.g.SetParallel(parallel)
	for i := range w.rngs {
		w.rngs[i] = rand.New(rand.NewSource(MixSeed(seed, uint64(i))))
	}
	return w
}

// fresh draws shard's next tag and returns it with the delay from the
// shard's clock to the first instant at least min away whose residue is
// the tag.
func (w *windowWorld) fresh(shard int, min int64) (string, time.Duration) {
	c := w.counters[shard]
	w.counters[shard]++
	if c > tagBudget {
		panic("windowWorld: tag budget exhausted")
	}
	tag := int64(shard + tagShards*c)
	now := w.g.kernels[shard].nowNs
	due := now + min
	due += ((tag-due)%tagMod + tagMod) % tagMod
	return fmt.Sprintf("%d.%d", shard, c), time.Duration(due - now)
}

// schedule puts a fresh local event on shard at least min away.
func (w *windowWorld) schedule(shard int, min int64) {
	id, d := w.fresh(shard, min)
	e := w.g.kernels[shard].ScheduleArg(d, w.fire, windowEv{shard: shard, id: id})
	if len(w.live[shard]) < maxLiveLocal {
		w.live[shard] = append(w.live[shard], e)
	} else {
		w.live[shard][w.rngs[shard].Intn(maxLiveLocal)] = e
	}
}

// post sends a fresh event from src to another shard at least min away.
func (w *windowWorld) post(src int, min int64) {
	dst := w.otherShard(src)
	id, d := w.fresh(src, min)
	w.g.Post(src, dst, d, w.fire, windowEv{shard: dst, id: id})
}

func (w *windowWorld) otherShard(src int) int {
	return (src + 1 + w.rngs[src].Intn(len(w.rngs)-1)) % len(w.rngs)
}

// fire logs the event on its shard and spawns up to two children: local
// schedules, cancels of earlier local events, cross-shard posts at or
// beyond the lookahead, at most one post at exactly the lookahead, and
// sparse far-future events that leave idle gaps.
func (w *windowWorld) fire(arg any) {
	ev := arg.(windowEv)
	s := ev.shard
	k := w.g.kernels[s]
	w.logs[s] = append(w.logs[s], fmt.Sprintf("%s@%d", ev.id, k.nowNs))
	r := w.rngs[s]
	if w.counters[s] >= spawnBudget {
		return
	}
	exactSent := false
	for n := r.Intn(3); n > 0; n-- {
		switch kind := r.Intn(10); {
		case kind < 3:
			w.schedule(s, r.Int63n(3*w.lookNs))
		case kind == 3:
			if live := w.live[s]; len(live) > 0 {
				live[r.Intn(len(live))].Cancel()
			}
		case kind < 7:
			w.post(s, w.lookNs+r.Int63n(3*w.lookNs))
		case kind == 7:
			if !exactSent {
				exactSent = true
				dst := w.otherShard(s)
				w.g.Post(s, dst, time.Duration(w.lookNs), w.fire,
					windowEv{shard: dst, id: ev.id + "+L"})
			}
		case kind == 8:
			w.schedule(s, 20*w.lookNs+r.Int63n(200*w.lookNs))
		default:
			w.post(s, 20*w.lookNs+r.Int63n(200*w.lookNs))
		}
	}
}

// betweenRuns acts from outside RunFor: local schedules and cross-shard
// posts (at or beyond the lookahead) made while no window is open.
func (w *windowWorld) betweenRuns(r *rand.Rand) {
	for n := r.Intn(3); n > 0; n-- {
		s := r.Intn(len(w.rngs))
		if r.Intn(2) == 0 {
			w.schedule(s, r.Int63n(4*w.lookNs))
		} else {
			w.post(s, w.lookNs+r.Int63n(4*w.lookNs))
		}
	}
}

// TestShardGroupMatchesFixedStrideReference drives identical random
// workloads through RunFor and through the fixed-stride reference loop,
// serially and in parallel, and requires the same per-shard delivery
// logs, executed counts and clocks after every RunFor.
func TestShardGroupMatchesFixedStrideReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/parallel=%v", seed, parallel), func(t *testing.T) {
				cfg := rand.New(rand.NewSource(seed))
				shards := 2 + cfg.Intn(4)
				lookNs := int64(1+cfg.Intn(8)) * tagMod
				ref := newWindowWorld(seed, shards, lookNs, parallel)
				got := newWindowWorld(seed, shards, lookNs, parallel)
				for _, w := range []*windowWorld{ref, got} {
					for s := 0; s < shards; s++ {
						for i := 0; i < 3; i++ {
							w.schedule(s, w.rngs[s].Int63n(10*lookNs))
						}
					}
				}
				for step := 0; step < 40; step++ {
					var d time.Duration
					switch cfg.Intn(5) {
					case 0:
						d = 0
					case 1:
						d = time.Duration(cfg.Int63n(lookNs))
					case 2:
						d = time.Duration(cfg.Int63n(100 * lookNs))
					default:
						d = time.Duration(cfg.Int63n(5 * lookNs))
					}
					between := cfg.Int63()
					ref.betweenRuns(rand.New(rand.NewSource(between)))
					got.betweenRuns(rand.New(rand.NewSource(between)))
					errRef := fixedStrideRunFor(ref.g, d)
					errGot := got.g.RunFor(d)
					if errRef != nil || errGot != nil {
						t.Fatalf("step %d: reference err %v, RunFor err %v", step, errRef, errGot)
					}
					if ref.g.Executed() != got.g.Executed() {
						t.Fatalf("step %d: executed %d, reference %d", step, got.g.Executed(), ref.g.Executed())
					}
					for s := 0; s < shards; s++ {
						if rc, gc := ref.g.kernels[s].nowNs, got.g.kernels[s].nowNs; rc != gc {
							t.Fatalf("step %d: shard %d clock %v, reference %v", step, s, time.Duration(gc), time.Duration(rc))
						}
						if !slices.Equal(ref.logs[s], got.logs[s]) {
							t.Fatalf("step %d: shard %d deliveries diverge:\n  got %v\n  ref %v", step, s, got.logs[s], ref.logs[s])
						}
					}
				}
				if got.g.Executed() < 50 {
					t.Fatalf("workload too small to compare: %d events", got.g.Executed())
				}
			})
		}
	}
}

// TestShardGroupPostBetweenRuns: a message posted from outside RunFor
// sits in the staging buffer until a flush. It must be flushed before
// the first window opens, or the window would open at the destination's
// next local event — 10 s away — and the message would land in that
// shard's past.
func TestShardGroupPostBetweenRuns(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		k0, k1 := New(), New()
		g := NewShardGroup(k0, k1)
		g.RegisterCrossLatency(500 * time.Microsecond)
		g.SetParallel(parallel)
		if err := g.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		local := time.Duration(-1)
		k1.Schedule(10*time.Second, func() { local = k1.Elapsed() })
		fired := time.Duration(-1)
		g.Post(0, 1, 1100*time.Microsecond, func(any) { fired = k1.Elapsed() }, nil)
		if err := g.RunFor(20 * time.Second); err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if fired != 2100*time.Microsecond {
			t.Fatalf("parallel=%v: message fired at %v, want its due time 2.1ms", parallel, fired)
		}
		if want := 10*time.Second + time.Millisecond; local != want {
			t.Fatalf("parallel=%v: local event fired at %v, want %v", parallel, local, want)
		}
		if want := 20*time.Second + time.Millisecond; k0.Elapsed() != want || k1.Elapsed() != want {
			t.Fatalf("parallel=%v: clocks %v, %v, want %v", parallel, k0.Elapsed(), k1.Elapsed(), want)
		}
	}
}
