// Package exp provides the parallel seeded-trial executor the experiment
// harness runs on. The paper's evaluation (Figures 4-8, 10-11, Table II)
// is regenerated from many independent trials, each owning a private
// sim.Kernel; this package shards those trials across worker goroutines,
// collects per-trial results over a channel, and merges them back in
// input order, so aggregate output is bit-for-bit identical to a serial
// run regardless of goroutine scheduling.
package exp

import (
	"fmt"
	"runtime"
	"sync"
)

// DefaultWorkers reports the worker count used when a caller passes a
// non-positive count: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Seeds derives n trial seeds from base with the given stride. Experiments
// use a prime stride so per-trial seeds do not collide between experiments
// that offset base by small integers.
func Seeds(base int64, n int, stride int64) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*stride
	}
	return out
}

// Grid runs fn once per item, sharded across workers, and returns the
// results in item order. workers <= 0 selects DefaultWorkers(), and the
// count is clamped to len(items).
//
// With one worker the trials run inline on the calling goroutine in item
// order — the serial reference path — stopping at the first error. With
// more workers, dispatch stops as soon as any trial fails: in-flight
// trials drain, undispatched ones never start. Because jobs are handed
// out in item order, every item before the lowest-indexed failure has
// already been dispatched when the abort triggers, so draining still
// observes the error the serial path would have surfaced first and the
// two modes stay observationally identical for deterministic trials.
func Grid[T, R any](items []T, workers int, fn func(item T) (R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	if workers == 1 {
		for i, item := range items {
			r, err := fn(item)
			if err != nil {
				return nil, fmt.Errorf("trial %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}

	type outcome struct {
		index int
		value R
		err   error
	}
	jobs := make(chan int)
	outcomes := make(chan outcome)
	abort := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				v, err := fn(items[i])
				outcomes <- outcome{index: i, value: v, err: err}
			}
		}()
	}
	go func() {
		defer func() {
			close(jobs)
			wg.Wait()
			close(outcomes)
		}()
		for i := range items {
			select {
			case jobs <- i:
			case <-abort:
				return
			}
		}
	}()

	firstErr := -1
	var errs []error
	for o := range outcomes {
		if o.err != nil {
			if errs == nil {
				errs = make([]error, len(items))
				close(abort)
			}
			errs[o.index] = o.err
			if firstErr < 0 || o.index < firstErr {
				firstErr = o.index
			}
			continue
		}
		results[o.index] = o.value
	}
	if firstErr >= 0 {
		return nil, fmt.Errorf("trial %d: %w", firstErr, errs[firstErr])
	}
	return results, nil
}
