package stats

import (
	"math"

	"repro/internal/sim"
)

// Histogram is a log-bucketed latency histogram: cheap to update, compact,
// and accurate to ~9 % anywhere on the range — good enough for the tail
// percentiles papers report (p95/p99). Its fields are exported so that a
// histogram is its own checkpoint record; change them only through the
// methods.
type Histogram struct {
	Counts []int64 // observations per bucket
	Total  int64
}

// bucketsPerOctave controls resolution: 8 sub-buckets per power of two
// bounds relative error at 2^(1/8)-1 ≈ 9 %.
const bucketsPerOctave = 8

func histBucket(v sim.Cycle) int {
	if v < 1 {
		v = 1
	}
	return int(math.Floor(math.Log2(float64(v)) * bucketsPerOctave))
}

func bucketLow(i int) float64 {
	return math.Pow(2, float64(i)/bucketsPerOctave)
}

// Record adds one observation.
func (h *Histogram) Record(v sim.Cycle) {
	i := histBucket(v)
	for len(h.Counts) <= i {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[i]++
	h.Total++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.Total }

// Quantile returns an estimate of the q-quantile (0 < q <= 1) as the lower
// bound of the bucket containing it; 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return bucketLow(i)
		}
	}
	return bucketLow(len(h.Counts) - 1)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for len(h.Counts) < len(other.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Total += other.Total
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Total = 0
}
