// Package sim provides a deterministic discrete-event simulation kernel.
//
// All network components in this repository are driven by a single Kernel:
// they schedule callbacks at virtual times, and the kernel executes them in
// strict (time, sequence) order on one goroutine. Runs are reproducible
// bit-for-bit for a fixed seed, and thousands of simulated seconds execute
// in milliseconds of wall time, which is what makes the paper's
// latency-distribution experiments (Figures 4-8, 10-11) practical to
// regenerate on a laptop.
//
// # Performance model
//
// The kernel's hot path is allocation-free in steady state:
//
//   - Virtual time is an int64 nanosecond offset from the kernel's epoch.
//     Ordering events compares two integers, not time.Time values; the
//     public API still speaks time.Time, converted at the boundary with
//     exact integer arithmetic, so observable timestamps are unchanged.
//   - Fired and collected event slots are recycled through a free list.
//     After warm-up, Schedule draws a slot from the free list and firing
//     returns it, so a self-sustaining workload allocates nothing per event.
//   - The priority queue is a binary heap over a plain slice with inlined
//     sift-up/sift-down — no container/heap interface dispatch. The heap
//     holds 16-byte values, the firing time and one word packing the
//     sequence number above the slot index, with no pointer in them: a
//     sift compares and moves plain words, with no GC write barrier and
//     no dereference per compare, and the collector never scans the
//     heap's backing array. Step looks its slot up once per pop.
//   - Slots live in kernel-owned chunks of 32, addressed by index, so
//     their addresses are stable for Event handles and a new slot costs
//     no allocation of its own; the free list holds slot indexes.
//   - Cancel marks an event and leaves it in the heap (lazy deletion). When
//     canceled events outnumber live ones the heap is compacted in place.
//     Because every event's (time, seq) key is unique, compaction cannot
//     change the firing order.
//
// Event handles are generation-checked values: a handle to a slot that has
// since been recycled becomes inert, so retaining a handle past its firing
// can never cancel an unrelated later event.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sdntamper/internal/obs/trace"
)

// Epoch is the virtual start-of-time of every Kernel. The specific
// date is arbitrary (the paper's publication venue date); only differences
// between instants matter.
var Epoch = time.Date(2018, time.June, 25, 0, 0, 0, 0, time.UTC)

// ErrEventLimit is returned by the run methods when the kernel executes
// more events than its configured limit, which almost always indicates a
// runaway self-rescheduling component.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// compactMin is the minimum number of canceled events before heap
// compaction is considered; below it the lazy pop-time discard is cheaper.
const compactMin = 64

// A heap entry packs an event's sequence number and its slot index into
// one word, seq in the high bits, so ordering by that word is ordering by
// seq. slotBits bounds the events a kernel holds pending at once (16M)
// and leaves 40 bits of sequence numbers (1.1e12 schedules between
// Resets); both bounds panic rather than wrap.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSlots = 1 << slotBits
	maxSeq   = 1 << (64 - slotBits)
)

// chunkSlots is the number of slots allocated together. A chunk of 32
// 72-byte slots fills a 2304-byte size class exactly, and keeps a
// short-lived kernel's first allocation small.
const chunkSlots = 32

// heapEntry is one element of the kernel's event heap: the firing time and
// the packed (seq, slot index) key. It holds no pointer, so the heap's
// backing array is never scanned by the garbage collector and a sift
// stores plain words, with no write barrier and no dereference per compare.
type heapEntry struct {
	at  int64 // virtual ns since the kernel epoch
	key uint64
}

func (e heapEntry) slot() uint32 { return uint32(e.key & slotMask) }

// less orders entries by (time, seq). Sequence numbers are unique, so this
// is a strict total order.
func (e heapEntry) less(o heapEntry) bool {
	return e.at < o.at || (e.at == o.at && e.key < o.key)
}

// eventSlot is the kernel-internal storage for one scheduled callback.
// Slots live in kernel-owned chunks, so their addresses are stable, and
// are recycled through the kernel's free list of slot indexes; gen
// increments on every recycle so stale Event handles go inert.
type eventSlot struct {
	at       int64 // virtual ns since the kernel epoch, for Event.Time
	gen      uint64
	canceled bool
	k        *Kernel
	fn       func()
	argFn    func(any)
	arg      any
	// span is the trace context captured when the event was scheduled;
	// Step restores it before dispatch so causal chains survive any
	// number of scheduling hops (always zero with tracing disabled).
	span uint64
}

type slotChunk [chunkSlots]eventSlot

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel it before it fires. It is a small value;
// copy it freely. The zero Event is inert: Cancel is a no-op and
// Scheduled reports false. A handle whose callback has fired (or whose
// slot has been recycled for a later event) is likewise inert.
type Event struct {
	slot *eventSlot
	gen  uint64
}

// Cancel prevents the event's callback from running. Canceling an event
// that already fired (or was already canceled), or the zero Event, is a
// no-op.
func (e Event) Cancel() {
	s := e.slot
	if s == nil || s.gen != e.gen || s.canceled {
		return
	}
	s.canceled = true
	s.k.noteCancel()
}

// Scheduled reports whether the event is still pending: scheduled, not
// canceled, and not yet fired.
func (e Event) Scheduled() bool {
	s := e.slot
	return s != nil && s.gen == e.gen && !s.canceled
}

// Time reports the virtual time at which the event fires, or the zero
// time if the handle is no longer pending.
func (e Event) Time() time.Time {
	s := e.slot
	if s == nil || s.gen != e.gen {
		return time.Time{}
	}
	return s.k.timeAt(s.at)
}

// Kernel is the discrete-event simulation engine. It is not safe for
// concurrent use: all components sharing a Kernel must run on the kernel's
// event loop.
type Kernel struct {
	nowNs int64 // virtual ns since Epoch

	heap     []heapEntry
	chunks   []*slotChunk // slot i is chunks[i/chunkSlots][i%chunkSlots]
	free     []uint32     // indexes of unused slots
	ncancel  int          // canceled events still resident in heap
	seq      uint64
	seed     int64
	rng      *rand.Rand
	executed uint64

	eventLimit uint64
	stepHook   func()
	tracer     *trace.Recorder
}

// Option configures a Kernel.
type Option func(*Kernel)

// WithSeed sets the kernel RNG seed. The default seed is 1.
func WithSeed(seed int64) Option {
	return func(k *Kernel) { k.seed = seed }
}

// WithEventLimit bounds the total number of events a kernel will execute
// across all run calls. The default is 50 million.
func WithEventLimit(n uint64) Option {
	return func(k *Kernel) { k.eventLimit = n }
}

// New creates a Kernel positioned at the epoch with an empty event queue.
func New(opts ...Option) *Kernel {
	k := &Kernel{
		seed:       1,
		eventLimit: 50_000_000,
	}
	for _, opt := range opts {
		opt(k)
	}
	// Seeded once, after the options: a source costs ~5 KB to build.
	k.rng = rand.New(rand.NewSource(k.seed))
	return k
}

// Reset returns the kernel to its initial state — clock at the epoch,
// sequence and executed counters at zero, RNG reseeded with the
// configured seed — while retaining the heap and free-list capacity so a
// kernel reused across trials does not re-grow its queue. The RNG is
// reseeded in place, so a component holding Rand() draws the restarted
// sequence too. All pending
// events are discarded and every outstanding Event handle goes inert.
// The event limit, epoch and step hook are construction-time wiring and
// are kept.
func (k *Kernel) Reset() {
	for _, e := range k.heap {
		i := e.slot()
		k.recycle(i, k.slot(i))
	}
	k.heap = k.heap[:0]
	k.ncancel = 0
	k.nowNs = 0
	k.seq = 0
	k.executed = 0
	k.rng.Seed(k.seed)
}

// timeAt converts a virtual-ns offset to the public time.Time form.
func (k *Kernel) timeAt(ns int64) time.Time { return Epoch.Add(time.Duration(ns)) }

// Now reports the current virtual time.
func (k *Kernel) Now() time.Time { return k.timeAt(k.nowNs) }

// Elapsed reports virtual time elapsed since the epoch.
func (k *Kernel) Elapsed() time.Duration { return time.Duration(k.nowNs) }

// Rand exposes the kernel's deterministic random source. Components must
// draw all randomness from it to keep runs reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Pending reports the number of events resident in the queue, including
// canceled events that have not yet been discarded or compacted away.
func (k *Kernel) Pending() int { return len(k.heap) }

// SetStepHook installs fn to run after every executed event, replacing
// any previous hook (callers that need to stack hooks chain the value
// returned by StepHook). The observability layer uses it to count events
// and track queue depth; the hook must not touch the wall clock if the
// run is meant to stay deterministic.
func (k *Kernel) SetStepHook(fn func()) { k.stepHook = fn }

// StepHook returns the currently installed step hook, if any.
func (k *Kernel) StepHook() func() { return k.stepHook }

// Executed reports the total number of events run so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// SetTracer attaches a span recorder to the kernel. From then on every
// scheduled event captures the current span context and Step restores
// it before dispatch, so trace parentage crosses arbitrary scheduling
// hops. With no tracer (the default) the hot path pays one nil check
// and stays allocation-free.
func (k *Kernel) SetTracer(r *trace.Recorder) {
	k.tracer = r
	if r != nil {
		r.SetClock(func() int64 { return int64(k.Elapsed()) })
	}
}

// Tracer reports the attached span recorder, or nil.
func (k *Kernel) Tracer() *trace.Recorder { return k.tracer }

// Schedule runs fn after virtual delay d. A negative delay is treated as
// zero. Events scheduled for the same instant run in scheduling order.
func (k *Kernel) Schedule(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.scheduleNs(k.nowNs+int64(d), fn, nil, nil)
}

// ScheduleAt runs fn at virtual time t. Times in the past are clamped to
// the current instant.
func (k *Kernel) ScheduleAt(t time.Time, fn func()) Event {
	at := int64(t.Sub(Epoch))
	if at < k.nowNs {
		at = k.nowNs
	}
	return k.scheduleNs(at, fn, nil, nil)
}

// ScheduleArg runs fn(arg) after virtual delay d. It exists for hot paths
// that would otherwise allocate a fresh closure per event (e.g. per-frame
// link deliveries): with a package-level fn and a recycled arg, scheduling
// allocates nothing. A pointer-typed arg is stored in the interface word
// without boxing.
func (k *Kernel) ScheduleArg(d time.Duration, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	return k.scheduleNs(k.nowNs+int64(d), nil, fn, arg)
}

func (k *Kernel) scheduleNs(at int64, fn func(), argFn func(any), arg any) Event {
	var span uint64
	if k.tracer != nil {
		span = k.tracer.Current()
	}
	return k.scheduleNsCtx(at, fn, argFn, arg, span)
}

// scheduleNsCtx schedules with an explicit trace context instead of the
// kernel tracer's current one. The shard group's flush uses it to stamp
// a cross-shard delivery with the context captured on the SOURCE shard
// at Post time (the destination tracer's context is unrelated by the
// time staged messages land).
func (k *Kernel) scheduleNsCtx(at int64, fn func(), argFn func(any), arg any, span uint64) Event {
	if k.seq == maxSeq {
		panic("sim: event sequence space exhausted")
	}
	i := k.newSlot()
	s := k.slot(i)
	s.at = at
	s.fn = fn
	s.argFn = argFn
	s.arg = arg
	s.span = span
	k.heapPush(heapEntry{at: at, key: k.seq<<slotBits | uint64(i)})
	k.seq++
	return Event{slot: s, gen: s.gen}
}

// slot returns the slot with index i.
func (k *Kernel) slot(i uint32) *eventSlot {
	return &k.chunks[i/chunkSlots][i%chunkSlots]
}

// newSlot takes a slot index from the free list, adding a chunk of fresh
// slots when it is empty.
func (k *Kernel) newSlot() uint32 {
	if len(k.free) == 0 {
		base := len(k.chunks) * chunkSlots
		if base+chunkSlots > maxSlots {
			panic("sim: too many pending events")
		}
		c := new(slotChunk)
		for j := range c {
			c[j].k = k
		}
		k.chunks = append(k.chunks, c)
		// Pushed high to low, so the chunk's slots are handed out in
		// index order.
		for j := base + chunkSlots - 1; j >= base; j-- {
			k.free = append(k.free, uint32(j))
		}
	}
	n := len(k.free) - 1
	i := k.free[n]
	k.free = k.free[:n]
	return i
}

// recycle invalidates every outstanding handle to slot i, which is s, and
// returns it to the free list. Callers account for ncancel themselves.
func (k *Kernel) recycle(i uint32, s *eventSlot) {
	s.gen++
	s.canceled = false
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	k.free = append(k.free, i)
}

// noteCancel counts a cancellation and compacts the heap once canceled
// events outnumber live ones. Compaction preserves firing order: (at, seq)
// keys are globally unique, so rebuilding the heap from the surviving
// entries yields the same pop sequence.
func (k *Kernel) noteCancel() {
	k.ncancel++
	if k.ncancel >= compactMin && k.ncancel*2 > len(k.heap) {
		k.compact()
	}
}

func (k *Kernel) compact() {
	h := k.heap
	n := 0
	for _, e := range h {
		if i, s := e.slot(), k.slot(e.slot()); s.canceled {
			k.recycle(i, s)
		} else {
			h[n] = e
			n++
		}
	}
	k.heap = h[:n]
	for i := n/2 - 1; i >= 0; i-- {
		k.siftDown(i, h[i])
	}
	k.ncancel = 0
}

func (k *Kernel) heapPush(e heapEntry) {
	k.heap = append(k.heap, e)
	// Inlined sift-up.
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].less(e) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// heapPop removes and returns the earliest entry. The heap must not be
// empty.
func (k *Kernel) heapPop() heapEntry {
	h := k.heap
	n := len(h) - 1
	top := h[0]
	k.heap = h[:n]
	if n > 0 {
		k.siftDown(0, h[n])
	}
	return top
}

// siftDown places e in the heap starting from the hole at index i.
func (k *Kernel) siftDown(i int, e heapEntry) {
	h := k.heap
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := h[child]
		if r := child + 1; r < n && h[r].less(c) {
			child, c = r, h[r]
		}
		if e.less(c) {
			break
		}
		h[i] = c
		i = child
	}
	h[i] = e
}

// Step executes the single next event. It returns false when the queue
// holds no runnable events.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		e := k.heapPop()
		i := e.slot()
		s := k.slot(i)
		if s.canceled {
			k.ncancel--
			k.recycle(i, s)
			continue
		}
		k.nowNs = e.at
		k.executed++
		fn, argFn, arg := s.fn, s.argFn, s.arg
		if k.tracer != nil {
			k.tracer.SetCurrent(s.span)
		}
		// Recycle before running so a self-rescheduling callback reuses
		// this slot; the handle we return from Schedule is already stale
		// by the time its callback runs, exactly as before.
		k.recycle(i, s)
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		if k.stepHook != nil {
			k.stepHook()
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or the event limit trips.
func (k *Kernel) Run() error {
	for {
		if k.executed >= k.eventLimit {
			return fmt.Errorf("%w after %d events", ErrEventLimit, k.executed)
		}
		if !k.Step() {
			return nil
		}
	}
}

// RunFor executes events for virtual duration d, then stops with the clock
// advanced to exactly now+d (even if the queue drained earlier).
func (k *Kernel) RunFor(d time.Duration) error {
	return k.runUntilNs(k.nowNs + int64(d))
}

// RunUntil executes events with firing times at or before deadline, then
// advances the clock to exactly the deadline.
func (k *Kernel) RunUntil(deadline time.Time) error {
	return k.runUntilNs(int64(deadline.Sub(Epoch)))
}

func (k *Kernel) runUntilNs(deadline int64) error {
	for {
		if k.executed >= k.eventLimit {
			return fmt.Errorf("%w after %d events", ErrEventLimit, k.executed)
		}
		next, ok := k.nextNs()
		if !ok || next > deadline {
			if deadline > k.nowNs {
				k.nowNs = deadline
			}
			return nil
		}
		k.Step()
	}
}

// PeekNext reports the firing time of the next runnable event, if any.
// Real-time drivers use it to sleep exactly until work is due.
func (k *Kernel) PeekNext() (time.Time, bool) {
	at, ok := k.nextNs()
	if !ok {
		return time.Time{}, false
	}
	return k.timeAt(at), true
}

// nextNs reports the firing offset of the next runnable event, lazily
// discarding canceled events encountered at the top of the heap.
func (k *Kernel) nextNs() (int64, bool) {
	for len(k.heap) > 0 {
		e := k.heap[0]
		i := e.slot()
		s := k.slot(i)
		if !s.canceled {
			return e.at, true
		}
		k.heapPop()
		k.ncancel--
		k.recycle(i, s)
	}
	return 0, false
}

// Ticker fires a callback at a fixed virtual interval until stopped.
type Ticker struct {
	kernel   *Kernel
	interval time.Duration
	fn       func()
	pending  Event
	stopped  bool
}

// NewTicker schedules fn every interval, with the first firing one full
// interval from now. It panics if interval is not positive, mirroring
// time.NewTicker.
func (k *Kernel) NewTicker(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t := &Ticker{kernel: k, interval: interval, fn: fn}
	t.arm()
	return t
}

// arm schedules the next firing through ScheduleArg, so re-arming costs
// no closure allocation.
func (t *Ticker) arm() {
	t.pending = t.kernel.ScheduleArg(t.interval, fireTicker, t)
}

func fireTicker(arg any) {
	t := arg.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels all future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.pending.Cancel()
}
