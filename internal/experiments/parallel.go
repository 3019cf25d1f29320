package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweep runs f(i) for i in [0, n) on up to NumCPU workers and returns the
// results in index order. Simulation runs are independent, deterministic
// given their config, and CPU-bound, so sweeps parallelise perfectly. Work is
// claimed via an atomic index rather than a channel: with 30+-point sweeps
// whose points finish at very different times, channel handoff serialises
// dispatch on the sender, while an atomic fetch-add lets every worker
// self-serve. Every index runs; if any fails, sweep returns the error of the
// lowest failing index, so the error reported does not depend on scheduling.
func sweep[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	failed := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], failed[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range failed {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
