package exp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeeds(t *testing.T) {
	got := Seeds(10, 3, 7919)
	want := []int64{10, 10 + 7919, 10 + 2*7919}
	if len(got) != len(want) {
		t.Fatalf("seeds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeds[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if Seeds(1, 0, 1) != nil {
		t.Fatal("zero-count seeds should be nil")
	}
	if Seeds(1, -3, 1) != nil {
		t.Fatal("negative-count seeds should be nil")
	}
}

func TestGridPreservesItemOrder(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	// Invert the natural completion order so late items finish first: the
	// merge must still come back in item order.
	got, err := Grid(items, 8, func(i int) (int, error) {
		time.Sleep(time.Duration(len(items)-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestGridSerialMatchesParallel(t *testing.T) {
	trial := func(seed int64) (int64, error) { return seed * 3, nil }
	seeds := Seeds(100, 17, 31)
	serial, err := Grid(seeds, 1, trial)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Grid(seeds, 5, trial)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("result %d differs: %d vs %d", i, serial[i], parallel[i])
		}
	}
}

func TestGridWorkerClamping(t *testing.T) {
	var live, peak atomic.Int32
	_, err := Grid([]int{1, 2, 3}, 64, func(int) (int, error) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		live.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Fatalf("concurrency %d exceeded item count", peak.Load())
	}
}

func TestGridEmpty(t *testing.T) {
	got, err := Grid(nil, 4, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty grid = %v, %v", got, err)
	}
}

func TestGridErrorIsFirstInItemOrder(t *testing.T) {
	sentinel := errors.New("boom")
	trial := func(i int) (int, error) {
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("item %d: %w", i, sentinel)
		}
		return i, nil
	}
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		_, err := Grid(items, workers, trial)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Both modes must report the error the serial path hits first.
		if want := "trial 3: item 3: boom"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}

// TestGridStopsDispatchAfterError: once a trial fails, the remaining
// undispatched trials must never start. Item 0 fails immediately; the
// other items park on a gate that only the test releases, so any item
// dispatched after the failure would deadlock the run (caught by the
// test timeout) — instead the grid must drain in-flight work and return.
func TestGridStopsDispatchAfterError(t *testing.T) {
	const n, workers = 1000, 4
	sentinel := errors.New("early failure")
	gate := make(chan struct{})
	failed := make(chan struct{})
	var started atomic.Int32
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	done := make(chan error, 1)
	go func() {
		_, err := Grid(items, workers, func(i int) (int, error) {
			started.Add(1)
			if i == 0 {
				close(failed)
				return 0, sentinel
			}
			<-gate
			return i, nil
		})
		done <- err
	}()
	// While the gate is shut every non-failing worker parks inside its
	// current trial, so at most `workers` trials can be running. Wait for
	// the failure, give the collector time to observe it and stop the
	// feeder, then release the in-flight trials so the drain completes.
	<-failed
	time.Sleep(50 * time.Millisecond)
	close(gate)
	select {
	case err := <-done:
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want %v", err, sentinel)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("grid did not return after early failure")
	}
	// Only the trials dispatched before the abort may run: the failing
	// item plus the in-flight ones, with a small dispatch race margin —
	// nowhere near all n.
	if s := started.Load(); int(s) > 2*workers {
		t.Fatalf("%d trials started after early failure, want <= %d", s, 2*workers)
	}
}

// TestGridAbortKeepsFirstErrorByItemOrder: the early abort must not
// change which error is reported. Item 5 fails slowly, item 20 fails
// fast; the parallel path likely observes item 20's failure first and
// aborts, but item 5 was dispatched earlier (in-order dispatch), so the
// drain still surfaces "trial 5" exactly like the serial path.
func TestGridAbortKeepsFirstErrorByItemOrder(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	trial := func(i int) (int, error) {
		switch i {
		case 5:
			time.Sleep(20 * time.Millisecond)
			return 0, fmt.Errorf("slow failure %d", i)
		case 20:
			return 0, fmt.Errorf("fast failure %d", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 8} {
		_, err := Grid(items, workers, trial)
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if want := "trial 5: slow failure 5"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	got, err := Grid(Seeds(1, 9, 1), 0, func(seed int64) (int64, error) { return seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i)+1 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

var sweep = []Config{{Shards: 1}, {Shards: 2, Parallel: true}, {Shards: 5, Parallel: true}}

// sweepRun is one fake run's result. Shards differs by config and is
// tagged out of the fingerprint; Events and the rendering are compared.
type sweepRun struct {
	Shards    int `json:"-"`
	Events    int `json:"events"`
	rendering string
}

// fingerprintBy runs a sweep whose result for each config comes from
// runs, keyed by shard count.
func fingerprintBy(runs map[int]sweepRun) ([]sweepRun, error) {
	return Equivalent(sweep, func(cfg Config) (sweepRun, string, error) {
		r := runs[cfg.Shards]
		r.Shards = cfg.Shards
		return r, r.rendering, nil
	})
}

func TestEquivalentReferenceIsFirstConfig(t *testing.T) {
	same := sweepRun{Events: 7, rendering: "a 1\nb 2\n"}
	got, err := fingerprintBy(map[int]sweepRun{1: same, 2: same, 5: same})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Shards != 1 || got[1].Shards != 2 || got[2].Shards != 5 {
		t.Fatalf("results = %+v, want config order", got)
	}
	// 2 and 5 agree with each other but not with the first config: the
	// first disagreeing config is reported against the first config.
	other := sweepRun{Events: 8, rendering: same.rendering}
	_, err = fingerprintBy(map[int]sweepRun{1: same, 2: other, 5: other})
	if err == nil {
		t.Fatal("divergence from the first config passed")
	}
	want := "shards=2 parallel=true diverges from the shards=1 parallel=false reference at line 2:"
	if !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error = %q, want prefix %q", err, want)
	}
}

func TestEquivalentNamesFirstDifferingLine(t *testing.T) {
	ref := sweepRun{rendering: "a 1\nb 2\nc 3\n"}
	_, err := fingerprintBy(map[int]sweepRun{1: ref, 2: ref, 5: {rendering: "a 1\nb 9\nc 4\n"}})
	if err == nil {
		t.Fatal("rendering divergence passed")
	}
	msg := err.Error()
	// Lines 1-3 are the result's JSON; the rendering follows.
	for _, want := range []string{"shards=5 parallel=true", "line 5:", "ref: b 2", "got: b 9"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	if strings.Contains(msg, "c 4") {
		t.Errorf("error %q reports past the first differing line", msg)
	}
	_, err = fingerprintBy(map[int]sweepRun{1: ref, 2: {rendering: ref.rendering + "d 4\n"}, 5: ref})
	if err == nil || !strings.Contains(err.Error(), "line 7:") || !strings.Contains(err.Error(), "got: d 4") {
		t.Fatalf("extra rendering line: error = %v", err)
	}
}

func TestEquivalentWrapsRunError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Equivalent(sweep, func(cfg Config) (int, string, error) {
		if cfg.Shards == 5 {
			return 0, "", boom
		}
		return 0, "", nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want it to wrap %v", err, boom)
	}
	if !strings.HasPrefix(err.Error(), "shards=5 parallel=true: ") {
		t.Fatalf("error = %q, want it prefixed with its config", err)
	}
}

func TestEquivalentRunsInOrderOnCallingGoroutine(t *testing.T) {
	caller := goroutineID()
	var order []Config
	_, err := Equivalent(sweep, func(cfg Config) (int, string, error) {
		if id := goroutineID(); id != caller {
			t.Errorf("%v ran on goroutine %s, caller is %s", cfg, id, caller)
		}
		order = append(order, cfg)
		return 0, "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != fmt.Sprint(sweep) {
		t.Fatalf("ran %v, want %v", order, sweep)
	}
}

// goroutineID reads the current goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}
