package stats

import (
	"math"
	"testing"
)

func TestBucketed(t *testing.T) {
	b := NewBucketed(100)
	b.Add(5, 10)
	b.Add(50, 20)
	b.Add(150, 99)
	if b.Buckets() != 2 {
		t.Fatalf("buckets = %d, want 2", b.Buckets())
	}
	if got := b.Mean(0); got != 15 {
		t.Errorf("bucket 0 mean = %g, want 15", got)
	}
	if got := b.Mean(1); got != 99 {
		t.Errorf("bucket 1 mean = %g, want 99", got)
	}
	if !math.IsNaN(b.Mean(5)) {
		t.Error("out-of-range bucket mean not NaN")
	}
	if b.Sum(0) != 30 || b.N(0) != 2 {
		t.Errorf("bucket 0 sum/N = %g/%d", b.Sum(0), b.N(0))
	}
	if b.Sum(9) != 0 || b.N(9) != 0 {
		t.Error("out-of-range bucket not zero")
	}
}

func TestBucketedGapsAreNaN(t *testing.T) {
	b := NewBucketed(10)
	b.Add(0, 1)
	b.Add(35, 2) // buckets 1 and 2 empty
	if !math.IsNaN(b.Mean(1)) || !math.IsNaN(b.Mean(2)) {
		t.Error("empty middle buckets should be NaN")
	}
}

func TestBucketedZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width did not panic")
		}
	}()
	NewBucketed(0)
}

func TestSeriesMeanMax(t *testing.T) {
	s := Series{{T: 0, V: 1}, {T: 10, V: 3}, {T: 20, V: math.NaN()}, {T: 30, V: 2}}
	if got := s.MeanV(); got != 2 {
		t.Errorf("MeanV = %g, want 2 (NaN skipped)", got)
	}
	if got := s.MaxV(); got != 3 {
		t.Errorf("MaxV = %g, want 3", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if !math.IsNaN(s.MeanV()) || !math.IsNaN(s.MaxV()) {
		t.Error("empty series should yield NaN")
	}
	allNaN := Series{{V: math.NaN()}}
	if !math.IsNaN(allNaN.MeanV()) {
		t.Error("all-NaN series should yield NaN")
	}
}

func TestPowerLatencyProduct(t *testing.T) {
	if got := PowerLatencyProduct(0.25, 1.5); got != 0.375 {
		t.Errorf("PLP = %g, want 0.375", got)
	}
}
