// Package trace is the deterministic span flight-recorder of the
// simulation: a ring buffer of causally-linked spans whose identifiers
// and timestamps are pure functions of the simulation state, never of
// the wall clock, goroutine interleaving, or shard placement.
//
// Spans carry virtual-time start/end offsets (int64 nanoseconds since
// sim.Epoch), a parent span ID, and IDs derived with MixID from the
// emitting entity's identity and a per-entity sequence number. Because
// every input to a span is shard-count invariant, the merged span
// stream of a sharded run is byte-identical across 1, 2 or N shards and
// between serial and parallel window execution — the same contract the
// metrics registry already honors (see TestTraceByteIdentical).
//
// The package deliberately imports only the standard library so both
// sim (the kernel) and obs (the registry) can depend on it without a
// cycle: the kernel propagates span context across event scheduling and
// cross-shard mailbox handoff, while the semantic layers (link,
// dataplane, controller, defenses) emit the spans themselves.
//
// Tracing is off by default. A Recorder exists per shard but allocates
// its ring lazily on first emission, and every instrumentation site is
// gated on a nil or context check, so the PR 4 zero-alloc discipline on
// the kernel and frame hot paths is preserved when tracing is disabled
// (CI gates BenchmarkSchedule and BenchmarkFramePath at 0 allocs/op).
package trace

// Kind classifies the layer a span was emitted from; exports use it to
// group rows (Chrome trace viewers render one track per tid=Kind).
type Kind uint8

// Span kinds, one per instrumented layer.
const (
	KindKernel Kind = iota + 1
	KindLink
	KindData
	KindControl
	KindDefense
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindLink:
		return "link"
	case KindData:
		return "dataplane"
	case KindControl:
		return "control"
	case KindDefense:
		return "defense"
	}
	return "unknown"
}

// Span is one recorded interval (or instant, when Start == End) on the
// virtual clock. All fields are deterministic: Start/End are virtual
// nanoseconds since sim.Epoch, and ID/Parent come from MixID over
// entity identities and per-entity sequence numbers.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for a root span
	Start  int64  // virtual ns since sim.Epoch
	End    int64
	Kind   Kind
	Name   string
	Entity uint64 // layer-specific identity (DPID, link hash, module hash)
	Port   uint32
	Detail string
}

// MixID derives a span identifier from identity tags (a kind, an entity
// hash, a sequence number) using the same splitmix64 steps as
// sim.MixSeed, so IDs depend only on what emitted the span and how many
// spans that entity emitted before — never on shard placement. The
// result is never zero (zero means "no span").
func MixID(tags ...uint64) uint64 {
	var x uint64 = 0x9e3779b97f4a7c15
	for _, t := range tags {
		x += 0x9e3779b97f4a7c15 + t
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	if x == 0 {
		x = 1
	}
	return x
}

// DefaultCapacity is the span ring size used when a Recorder is created
// with a non-positive capacity: large enough that the test scenarios
// and a multi-minute traced trial retain every span (drops would make
// the retained stream depend on shard placement).
const DefaultCapacity = 1 << 16

// Recorder is one shard's span ring plus the shard's current span
// context (the causal parent inherited by whatever work is executing).
// Like the kernel it belongs to, a Recorder is single-goroutine: each
// shard's worker owns its recorder during a window, and merges happen
// between runs. A nil *Recorder is a valid, permanently-disabled
// recorder: every method is nil-receiver safe, so instrumentation
// sites need no separate enabled flag.
type Recorder struct {
	ring    []Span
	cap     int
	head    int // next write index
	n       int // valid spans in ring
	total   uint64
	dropped uint64
	current uint64
	clock   func() int64 // virtual ns since sim.Epoch; nil until wired
}

// NewRecorder creates a recorder with the given ring capacity (or
// DefaultCapacity if cap <= 0). The ring itself is allocated on first
// emission, so recorders created eagerly for never-traced runs cost a
// few words.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity}
}

// SetClock wires the recorder's virtual clock (the owning kernel's
// elapsed-ns function). Emitters that span an instant use Now rather
// than threading timestamps through.
func (r *Recorder) SetClock(fn func() int64) {
	if r != nil {
		r.clock = fn
	}
}

// Now reports the current virtual time in ns since sim.Epoch, or 0 if
// no clock is wired.
func (r *Recorder) Now() int64 {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// Current reports the span context of the executing event (0 if none).
func (r *Recorder) Current() uint64 {
	if r == nil {
		return 0
	}
	return r.current
}

// SetCurrent installs the span context inherited by subsequent work on
// this shard. The kernel calls it before dispatching every event with
// the context captured when the event was scheduled.
func (r *Recorder) SetCurrent(id uint64) {
	if r != nil {
		r.current = id
	}
}

// Emit records one span. When the ring is full the oldest span is
// overwritten and counted as dropped; exports of a run that dropped
// spans are still deterministic per shard count but no longer
// shard-count invariant, which Dropped exposes so tests can assert
// zero.
func (r *Recorder) Emit(s Span) {
	if r == nil {
		return
	}
	if r.ring == nil {
		r.ring = make([]Span, r.cap)
	}
	r.ring[r.head] = s
	r.head++
	if r.head == r.cap {
		r.head = 0
	}
	if r.n < r.cap {
		r.n++
	} else {
		r.dropped++
	}
	r.total++
}

// Total reports spans emitted over the recorder's lifetime.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped reports spans overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Spans copies the retained spans in emission order.
func (r *Recorder) Spans() []Span {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Span, 0, r.n)
	return r.appendRetained(out)
}

func (r *Recorder) appendRetained(out []Span) []Span {
	start := r.head - r.n
	if start < 0 {
		start += r.cap
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(start+i)%r.cap])
	}
	return out
}

// SpansSince returns the spans emitted after the given lifetime total
// (as previously returned by Total), plus the new total — the
// incremental read the SSE streaming endpoint uses. Spans already
// overwritten are silently unavailable.
func (r *Recorder) SpansSince(since uint64) ([]Span, uint64) {
	if r == nil {
		return nil, 0
	}
	if since >= r.total {
		return nil, r.total
	}
	missed := r.total - since
	if missed > uint64(r.n) {
		missed = uint64(r.n)
	}
	start := r.head - int(missed)
	if start < 0 {
		start += r.cap
	}
	out := make([]Span, 0, missed)
	for i := 0; i < int(missed); i++ {
		out = append(out, r.ring[(start+i)%r.cap])
	}
	return out, r.total
}

// Reset discards all retained spans and counters, keeping the ring
// storage, wiring and capacity, so a recorder reused across trials does
// not reallocate.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.head = 0
	r.n = 0
	r.total = 0
	r.dropped = 0
	r.current = 0
}
