package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestSweepCoversAll: every index is visited exactly once and its result
// lands at its own index, for sizes below, at, and well above the worker
// count.
func TestSweepCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 301} {
		counts := make([]int32, n)
		got, err := sweep(n, func(i int) (int, error) {
			atomic.AddInt32(&counts[i], 1)
			return i * i, nil
		})
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: %d results, error %v", n, len(got), err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, c)
			}
			if got[i] != i*i {
				t.Fatalf("n=%d: result %d = %d, want %d", n, i, got[i], i*i)
			}
		}
	}
}

// TestSweepUnevenWork: workers self-serve past slow items instead of
// waiting on a dispatcher, so wildly uneven item costs still cover all.
func TestSweepUnevenWork(t *testing.T) {
	const n = 100
	var total atomic.Int64
	_, err := sweep(n, func(i int) (struct{}, error) {
		if i == 0 {
			for k := 0; k < 1_000_000; k++ {
				_ = k * k
			}
		}
		total.Add(int64(i))
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1) / 2); total.Load() != want {
		t.Fatalf("sum of visited indices = %d, want %d", total.Load(), want)
	}
}

// TestSweepLowestErrorWins: when several indices fail, the error returned
// is the lowest failing index's, whichever worker finished first, and every
// index still runs.
func TestSweepLowestErrorWins(t *testing.T) {
	const n = 50
	var ran atomic.Int64
	for rep := 0; rep < 20; rep++ {
		ran.Store(0)
		got, err := sweep(n, func(i int) (int, error) {
			ran.Add(1)
			if i%7 == 3 {
				return 0, fmt.Errorf("index %d", i)
			}
			return i, nil
		})
		if got != nil || err == nil || err.Error() != "index 3" {
			t.Fatalf("sweep = %v, %v; want nil, the error of index 3", got, err)
		}
		if ran.Load() != n {
			t.Fatalf("%d of %d indices ran", ran.Load(), n)
		}
	}
}
