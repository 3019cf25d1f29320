package experiments

import (
	"runtime"

	"repro/internal/fleet"
)

// sweep runs f(i) for i in [0, n) on up to NumCPU workers and returns the
// results in index order. Simulation runs are independent, deterministic
// given their config, and CPU-bound, so sweeps parallelise perfectly; the
// workers are fleet.Run's, which claim indices from an atomic counter.
// Every index runs once, without retries; if any fails, sweep returns the
// error of the lowest failing index, so the error reported does not depend
// on scheduling.
func sweep[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := fleet.Run(fleet.Config{Workers: runtime.NumCPU()}, n, func(i, _ int) error {
		var err error
		out[i], err = f(i)
		return err
	}, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
