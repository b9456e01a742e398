package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// buildWorkload schedules a deterministic pseudo-random event tree on a
// kernel and returns the trace recorder.
func buildWorkload(k *Kernel, seeds []uint16) *[]time.Duration {
	trace := &[]time.Duration{}
	for _, s := range seeds {
		delay := time.Duration(s%1000) * time.Millisecond
		depth := int(s % 4)
		var chain func(left int)
		chain = func(left int) {
			*trace = append(*trace, k.Elapsed())
			if left > 0 {
				k.Schedule(delay/2+time.Millisecond, func() { chain(left - 1) })
			}
		}
		k.Schedule(delay, func() { chain(depth) })
	}
	return trace
}

// TestStepAndRunUntilEquivalent: executing a workload with Run, with
// repeated Step, or with arbitrary RunUntil slicing must produce the
// identical event trace — the kernel's execution order cannot depend on
// how the caller drives it.
func TestStepAndRunUntilEquivalent(t *testing.T) {
	f := func(seeds []uint16, slices []uint8) bool {
		if len(seeds) == 0 || len(seeds) > 30 {
			return true
		}
		// Reference: Run to completion.
		k1 := New(WithSeed(1))
		ref := buildWorkload(k1, seeds)
		if err := k1.Run(); err != nil {
			t.Error(err)
			return false
		}

		// Step-by-step.
		k2 := New(WithSeed(1))
		stepped := buildWorkload(k2, seeds)
		for k2.Step() {
		}

		// RunUntil in arbitrary slices, then drain.
		k3 := New(WithSeed(1))
		sliced := buildWorkload(k3, seeds)
		for _, s := range slices {
			if err := k3.RunFor(time.Duration(s) * 10 * time.Millisecond); err != nil {
				t.Error(err)
				return false
			}
		}
		if err := k3.Run(); err != nil {
			t.Error(err)
			return false
		}

		if len(*ref) != len(*stepped) || len(*ref) != len(*sliced) {
			t.Errorf("trace lengths: run=%d step=%d sliced=%d", len(*ref), len(*stepped), len(*sliced))
			return false
		}
		for i := range *ref {
			if (*ref)[i] != (*stepped)[i] || (*ref)[i] != (*sliced)[i] {
				t.Errorf("traces diverge at %d", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// naiveEvent / naiveKernel are a deliberately simple reference
// implementation of the kernel's contract: a flat slice scanned linearly
// for the minimum (time, seq) key, with eager cancellation. The property
// test below pins the optimized kernel's firing order against it.
type naiveEvent struct {
	at       time.Duration // offset from epoch
	seq      uint64
	id       int
	canceled bool
}

type naiveKernel struct {
	now    time.Duration
	seq    uint64
	events []*naiveEvent
}

func (n *naiveKernel) schedule(d time.Duration, id int) *naiveEvent {
	if d < 0 {
		d = 0
	}
	e := &naiveEvent{at: n.now + d, seq: n.seq, id: id}
	n.seq++
	n.events = append(n.events, e)
	return e
}

// fire fires events with firing times at or before deadline in
// (time, seq) order, invoking visit for each.
func (n *naiveKernel) fire(deadline time.Duration, visit func(id int)) {
	for {
		best := -1
		for i, e := range n.events {
			if e.canceled {
				continue
			}
			if best < 0 || e.at < n.events[best].at ||
				(e.at == n.events[best].at && e.seq < n.events[best].seq) {
				best = i
			}
		}
		if best < 0 || n.events[best].at > deadline {
			return
		}
		e := n.events[best]
		n.events = append(n.events[:best], n.events[best+1:]...)
		n.now = e.at
		visit(e.id)
	}
}

// run fires events until none remain.
func (n *naiveKernel) run(visit func(id int)) { n.fire(math.MaxInt64, visit) }

// runUntil fires events up to deadline, then advances the clock to it.
func (n *naiveKernel) runUntil(deadline time.Duration, visit func(id int)) {
	n.fire(deadline, visit)
	n.now = max(n.now, deadline)
}

// reset discards every pending event and rewinds the clock and sequence.
func (n *naiveKernel) reset() {
	n.events, n.now, n.seq = nil, 0, 0
}

type firing struct {
	id int
	at time.Duration
}

// referencePair drives the optimized kernel and the naive reference
// through one randomized schedule/cancel workload and records both
// firing traces (event id and firing time).
type referencePair struct {
	rng        *rand.Rand
	k          *Kernel
	ref        naiveKernel
	gotK       []firing
	gotRef     []firing
	kHandles   []Event
	refHandles []*naiveEvent
	nextID     int
}

func newReferencePair(seed int64) *referencePair {
	return &referencePair{rng: rand.New(rand.NewSource(seed)), k: New()}
}

// spawn schedules one event in both kernels and, at random, children of
// it up to depth more.
func (p *referencePair) spawn(depth int) {
	id := p.nextID
	p.nextID++
	// Duplicate delays on purpose: seq must break the ties.
	d := time.Duration(p.rng.Intn(5)) * time.Millisecond
	p.kHandles = append(p.kHandles, p.k.Schedule(d, func() {
		p.gotK = append(p.gotK, firing{id, p.k.Elapsed()})
	}))
	p.refHandles = append(p.refHandles, p.ref.schedule(d, id))
	if depth > 0 && p.rng.Intn(2) == 0 {
		p.spawn(depth - 1)
	}
}

// load schedules roots event trees, canceling a random earlier event in
// both kernels after a third of them (repeated cancels of one handle
// included), then mass-cancels a stride of every handle so far, enough
// to push the kernel past its compaction threshold (a chaos flap storm
// in miniature). Handles from before a Reset are in the stride too: in
// the kernel they must be inert, in the reference their events are gone.
func (p *referencePair) load(roots int) {
	for i := 0; i < roots; i++ {
		p.spawn(2)
		if p.rng.Intn(3) == 0 {
			j := p.rng.Intn(len(p.kHandles))
			p.kHandles[j].Cancel()
			p.refHandles[j].canceled = true
		}
	}
	for j := 1; j < len(p.kHandles); j += 2 {
		p.kHandles[j].Cancel()
		p.refHandles[j].canceled = true
	}
}

func (p *referencePair) runUntil(t *testing.T, d time.Duration) {
	if err := p.k.RunFor(d); err != nil {
		t.Fatal(err)
	}
	p.ref.runUntil(d, func(id int) { p.gotRef = append(p.gotRef, firing{id, p.ref.now}) })
}

func (p *referencePair) run(t *testing.T) {
	if err := p.k.Run(); err != nil {
		t.Fatal(err)
	}
	p.ref.run(func(id int) { p.gotRef = append(p.gotRef, firing{id, p.ref.now}) })
}

// match reports whether both kernels fired the same events at the same
// times in the same order.
func (p *referencePair) match(t *testing.T, seed int64) bool {
	if len(p.gotK) != len(p.gotRef) {
		t.Errorf("seed %d: fired %d vs reference %d", seed, len(p.gotK), len(p.gotRef))
		return false
	}
	for i := range p.gotK {
		if p.gotK[i] != p.gotRef[i] {
			t.Errorf("seed %d: firing %d diverges: kernel %+v, reference %+v",
				seed, i, p.gotK[i], p.gotRef[i])
			return false
		}
	}
	return true
}

// TestFiringOrderMatchesNaiveReference drives the optimized kernel and the
// naive reference through an identical randomized schedule/cancel/
// reschedule workload — including heavy cancellation that triggers heap
// compaction and free-list reuse — and requires byte-identical firing
// traces (event id and firing time). The deep case keeps more than 10K
// events with duplicate instants pending at once; the reset case resets
// both kernels partway through a run and loads a second workload.
func TestFiringOrderMatchesNaiveReference(t *testing.T) {
	t.Run("shallow", func(t *testing.T) {
		f := func(seed int64) bool {
			p := newReferencePair(seed)
			p.load(150)
			p.run(t)
			return p.match(t, seed)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("deep", func(t *testing.T) {
		for seed := int64(1); seed <= 2; seed++ {
			p := newReferencePair(seed)
			for p.k.Pending() < 10_000 {
				p.spawn(2)
			}
			p.load(1000)
			p.run(t)
			if !p.match(t, seed) {
				return
			}
		}
	})
	t.Run("reset", func(t *testing.T) {
		f := func(seed int64) bool {
			p := newReferencePair(seed)
			p.load(150)
			p.runUntil(t, 2*time.Millisecond)
			if p.k.Pending() == 0 {
				t.Errorf("seed %d: nothing pending at the reset", seed)
				return false
			}
			p.k.Reset()
			p.ref.reset()
			p.load(150)
			p.run(t)
			return p.match(t, seed)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPeekNext(t *testing.T) {
	k := New()
	if _, ok := k.PeekNext(); ok {
		t.Fatal("empty kernel has a next event")
	}
	e := k.Schedule(5*time.Millisecond, func() {})
	next, ok := k.PeekNext()
	if !ok || !next.Equal(Epoch.Add(5*time.Millisecond)) {
		t.Fatalf("peek = %v ok=%v", next, ok)
	}
	e.Cancel()
	if _, ok := k.PeekNext(); ok {
		t.Fatal("canceled event still visible to peek")
	}
}

func TestPeekNextDoesNotExecute(t *testing.T) {
	k := New()
	fired := false
	k.Schedule(time.Millisecond, func() { fired = true })
	k.PeekNext()
	if fired || k.Executed() != 0 {
		t.Fatal("peek executed an event")
	}
}
