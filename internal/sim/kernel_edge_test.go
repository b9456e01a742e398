package sim

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestCancelThenRescheduleSameInstant: canceling a timeout and immediately
// rescheduling work at the same virtual instant (the pending-probe rearm
// pattern) must fire only the replacement, in scheduling order among its
// same-instant peers.
func TestCancelThenRescheduleSameInstant(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(5*time.Millisecond, func() { got = append(got, 1) })
	e := k.Schedule(5*time.Millisecond, func() { got = append(got, 2) })
	e.Cancel()
	k.Schedule(5*time.Millisecond, func() { got = append(got, 3) })
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", got)
	}
}

// TestCompactionPreservesOrder cancels enough events to trigger heap
// compaction and checks the survivors still fire in exact (time, seq)
// order. The cancellation pattern leaves survivors interleaved with
// canceled slots throughout the heap.
func TestCompactionPreservesOrder(t *testing.T) {
	k := New()
	const n = 4 * compactMin
	events := make([]Event, n)
	var got []int
	for i := 0; i < n; i++ {
		i := i
		// Many duplicate instants so seq is load-bearing for the order.
		d := time.Duration(i%7) * time.Millisecond
		events[i] = k.Schedule(d, func() { got = append(got, i) })
	}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			events[i].Cancel()
		}
	}
	if k.Pending() >= n {
		t.Fatalf("compaction did not run: %d events resident", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	var want []int
	for ms := 0; ms < 7; ms++ {
		for i := 0; i < n; i++ {
			if i%3 == 0 && i%7 == ms {
				want = append(want, i)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order diverges at %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestCompactionToEmptyHeap cancels every resident event, exactly
// compactMin of them, so the last cancel compacts the heap down to
// nothing. The emptied kernel must then schedule and fire as usual, and
// the canceled handles stay inert after their slots are reused.
func TestCompactionToEmptyHeap(t *testing.T) {
	k := New()
	fired := 0
	events := make([]Event, compactMin)
	for i := range events {
		events[i] = k.Schedule(time.Duration(i%3)*time.Millisecond, func() { fired++ })
	}
	for _, e := range events {
		e.Cancel()
	}
	if k.Pending() != 0 || k.ncancel != 0 {
		t.Fatalf("after canceling all: pending=%d ncancel=%d, want an empty compacted heap", k.Pending(), k.ncancel)
	}
	if _, ok := k.PeekNext(); ok {
		t.Fatal("empty heap reports a next event")
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Schedule(time.Duration(2-i)*time.Millisecond, func() { order = append(order, i) })
	}
	for _, e := range events {
		e.Cancel() // stale: must not cancel the slots' new occupants
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 || len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("fired %d canceled events, order %v; want 0 and [2 1 0]", fired, order)
	}
	if k.Elapsed() != 2*time.Millisecond {
		t.Fatalf("clock at %v, want 2ms", k.Elapsed())
	}
}

// TestHeapEntryHoldsNoPointer: the heap's element type must hold no
// pointer, or the garbage collector scans the heap's backing array and
// every sift store pays a write barrier. It must also stay two words.
func TestHeapEntryHoldsNoPointer(t *testing.T) {
	var k Kernel
	elem := reflect.TypeOf(k.heap).Elem()
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
			t.Errorf("%s is a %s: the heap element must be pointer-free", path, typ.Kind())
		}
	}
	walk(elem.Name(), elem)
	if size := unsafe.Sizeof(heapEntry{}); size != 16 {
		t.Errorf("heap entry is %d bytes, want 16", size)
	}
}

// TestSequenceBoundPanics: a heap entry packs seq above the slot index,
// so a kernel that has used up its sequence space must panic rather than
// wrap, which would reorder same-instant events.
func TestSequenceBoundPanics(t *testing.T) {
	k := New()
	k.seq = maxSeq - 1
	k.Schedule(0, func() {}) // the last sequence number still schedules
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling past the sequence bound did not panic")
		}
	}()
	k.Schedule(0, func() {})
}

// TestResetRetainsCapacityNotState: a Reset kernel behaves like a fresh
// one (clock, seq, executed, RNG) but keeps its grown queue capacity, and
// handles from before the Reset are inert.
func TestResetRetainsCapacityNotState(t *testing.T) {
	k := New(WithSeed(7))
	draws := func() (a, b float64) { return k.Rand().Float64(), k.Rand().Float64() }
	d1, d2 := draws()
	var stale Event
	for i := 0; i < 1000; i++ {
		stale = k.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	capBefore := cap(k.heap)

	k.Reset()
	if k.Pending() != 0 || k.Executed() != 0 || k.Elapsed() != 0 {
		t.Fatalf("state survived Reset: pending=%d executed=%d elapsed=%v",
			k.Pending(), k.Executed(), k.Elapsed())
	}
	if cap(k.heap) != capBefore {
		t.Fatalf("heap capacity not retained: %d, was %d", cap(k.heap), capBefore)
	}
	if r1, r2 := draws(); r1 != d1 || r2 != d2 {
		t.Fatal("RNG not reseeded to the configured seed")
	}
	// Events discarded by Reset must not fire, and their handles must not
	// cancel post-Reset occupants of the recycled slots.
	fired := 0
	for i := 0; i < 1000; i++ {
		k.Schedule(time.Millisecond, func() { fired++ })
	}
	stale.Cancel()
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired != 1000 {
		t.Fatalf("fired %d of 1000 post-Reset events", fired)
	}
	if k.Elapsed() != time.Millisecond {
		t.Fatalf("post-Reset clock = %v", k.Elapsed())
	}
	if k.seq != 1000 {
		t.Fatalf("post-Reset seq = %d, want 1000", k.seq)
	}
}

// TestScheduleArg: the closure-free scheduling variant fires with its
// argument and honors cancellation like Schedule.
func TestScheduleArg(t *testing.T) {
	k := New()
	var got []int
	record := func(x any) { got = append(got, *x.(*int)) }
	a, b := 1, 2
	k.ScheduleArg(time.Millisecond, record, &a)
	e := k.ScheduleArg(time.Millisecond, record, &b)
	e.Cancel()
	k.ScheduleArg(-time.Second, record, &b) // negative delay clamps to now
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("got %v, want [2 1]", got)
	}
}

// TestZeroDelaySchedule pins the kernel contract for zero-delay (and
// clamped-negative) schedules: the event fires at the current virtual
// instant, after already-queued same-instant events (seq order), without
// advancing the clock; a zero-delay event scheduled from inside a
// callback still fires within the same Run, at the same instant.
func TestZeroDelaySchedule(t *testing.T) {
	k := New()
	var got []string
	var at []time.Duration
	k.Schedule(0, func() {
		got = append(got, "outer")
		at = append(at, k.Elapsed())
		k.Schedule(0, func() { // zero delay from inside a callback
			got = append(got, "nested")
			at = append(at, k.Elapsed())
		})
	})
	k.Schedule(-time.Second, func() { // negative clamps to zero, queues after
		got = append(got, "negative")
		at = append(at, k.Elapsed())
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []string{"outer", "negative", "nested"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
	for i, d := range at {
		if d != 0 {
			t.Fatalf("event %q fired at %v, want 0", got[i], d)
		}
	}
	if k.Elapsed() != 0 {
		t.Fatalf("clock advanced to %v on zero-delay work", k.Elapsed())
	}
}

// TestTickerAcrossReset: a ticker armed before Reset must stay silent
// afterwards (its pending event was discarded).
func TestTickerAcrossReset(t *testing.T) {
	k := New()
	count := 0
	k.NewTicker(time.Millisecond, func() { count++ })
	k.Reset()
	if err := k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 0 {
		t.Fatalf("pre-Reset ticker fired %d times", count)
	}
}
