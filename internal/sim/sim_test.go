package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	k := New()
	var at time.Time
	k.Schedule(42*time.Millisecond, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := Epoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if k.Elapsed() != 42*time.Millisecond {
		t.Fatalf("elapsed = %v, want 42ms", k.Elapsed())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New()
	fired := false
	k.Schedule(-time.Second, func() { fired = true })
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if k.Elapsed() != 0 {
		t.Fatalf("clock moved backwards or forwards: %v", k.Elapsed())
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel()
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	// Cancel after run must be a no-op.
	e.Cancel()
	var zero Event
	zero.Cancel() // zero handle must not panic
	if zero.Scheduled() {
		t.Fatal("zero Event reports Scheduled")
	}
}

func TestEventHandleLifecycle(t *testing.T) {
	k := New()
	e := k.Schedule(time.Millisecond, func() {})
	if !e.Scheduled() {
		t.Fatal("pending event not Scheduled")
	}
	if want := Epoch.Add(time.Millisecond); !e.Time().Equal(want) {
		t.Fatalf("Time() = %v, want %v", e.Time(), want)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.Scheduled() {
		t.Fatal("fired event still Scheduled")
	}
	// A stale handle must not be able to cancel the slot's new occupant.
	fired := false
	k.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel()
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Fatal("stale handle canceled a recycled slot's new event")
	}
}

func TestRunFor(t *testing.T) {
	k := New()
	var count int
	k.NewTicker(10*time.Millisecond, func() { count++ })
	if err := k.RunFor(95 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 9 {
		t.Fatalf("ticks = %d, want 9", count)
	}
	if k.Elapsed() != 95*time.Millisecond {
		t.Fatalf("clock = %v, want exactly 95ms", k.Elapsed())
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	k := New()
	if err := k.RunFor(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if k.Elapsed() != time.Second {
		t.Fatalf("clock = %v, want 1s", k.Elapsed())
	}
}

func TestTickerStop(t *testing.T) {
	k := New()
	var count int
	var tk *Ticker
	tk = k.NewTicker(time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 3 {
		t.Fatalf("ticks after stop = %d, want 3", count)
	}
}

func TestTickerPanicsOnNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().NewTicker(0, func() {})
}

func TestEventLimit(t *testing.T) {
	k := New(WithEventLimit(10))
	var reschedule func()
	reschedule = func() { k.Schedule(time.Millisecond, reschedule) }
	k.Schedule(0, reschedule)
	err := k.Run()
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []time.Duration {
		k := New(WithSeed(7))
		var out []time.Duration
		s := Normal{Mean: 20 * time.Millisecond, Std: 5 * time.Millisecond}
		var step func()
		step = func() {
			d := s.Sample(k.Rand())
			out = append(out, d)
			if len(out) < 50 {
				k.Schedule(d, step)
			}
		}
		k.Schedule(0, step)
		if err := k.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSeededRandMatchesReference: a kernel's RNG draws exactly the
// sequence of rand.New(rand.NewSource(seed)), for the default seed and
// WithSeed alike, and Reset restarts that sequence, including the
// buffered Read position that Float64-style draws do not touch.
func TestSeededRandMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		opts []Option
	}{
		{"default", 1, nil},
		{"with-seed", 42, []Option{WithSeed(42)}},
		{"with-seed-twice", -9, []Option{WithSeed(3), WithSeed(-9)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(tc.opts...)
			draw := func(r *rand.Rand) [4]int64 {
				var buf [3]byte
				r.Read(buf[:])
				return [4]int64{r.Int63(), int64(buf[0])<<16 | int64(buf[1])<<8 | int64(buf[2]), r.Int63n(1000), int64(r.NormFloat64() * 1e9)}
			}
			for round := 0; round < 2; round++ {
				ref := rand.New(rand.NewSource(tc.seed))
				for i := 0; i < 5; i++ {
					if got, want := draw(k.Rand()), draw(ref); got != want {
						t.Fatalf("round %d draw %d: kernel %v, reference %v", round, i, got, want)
					}
				}
				k.Reset()
			}
		})
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.Schedule(time.Microsecond, recurse)
		}
	}
	k.Schedule(0, recurse)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Executed() != 100 {
		t.Fatalf("executed = %d, want 100", k.Executed())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	k := New()
	k.Schedule(10*time.Millisecond, func() {
		fired := false
		k.ScheduleAt(Epoch, func() { fired = true }) // in the past
		k.Schedule(0, func() {
			if !fired {
				t.Error("past-scheduled event should fire before later same-instant events")
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}
