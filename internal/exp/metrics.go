package exp

import "sdntamper/internal/obs"

// instrumented couples one trial's result with its private metrics
// registry while the pair rides through Grid.
type instrumented[R any] struct {
	result  R
	metrics *obs.Registry
}

// GridInstrumented runs fn once per item like Grid, with each item
// additionally returning its own obs.Registry (every trial owns a private
// kernel, so it must own a private registry too — sharing one across
// workers would race and break determinism). The per-item registries are
// merged in item order after all items finish, so the combined snapshot
// is byte-identical regardless of the worker count. An item may return a
// nil registry; it simply contributes nothing to the merge.
func GridInstrumented[T, R any](items []T, workers int, fn func(item T) (R, *obs.Registry, error)) ([]R, *obs.Registry, error) {
	wrapped, err := Grid(items, workers, func(item T) (instrumented[R], error) {
		r, reg, err := fn(item)
		return instrumented[R]{result: r, metrics: reg}, err
	})
	if err != nil {
		return nil, nil, err
	}
	results := make([]R, len(wrapped))
	regs := make([]*obs.Registry, len(wrapped))
	for i, w := range wrapped {
		results[i] = w.result
		regs[i] = w.metrics
	}
	return results, obs.MergeAll(regs...), nil
}
