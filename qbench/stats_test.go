package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRankWithSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.P90 != 90 || s.P99 != 99 {
		t.Fatalf("summary of 1..100 = %+v, want n=100 p50=50 p90=90 p99=99", s)
	}
	if got := summarize(nil); got.N != 0 || got.P50 != 0 {
		t.Fatalf("summary of nothing = %+v", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Fatalf("p99 of one sample = %v", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.99, 1000, true}, {0.99, 999, false}, {0.90, 100, true}, {0.90, 99, false}, {0.50, 20, true},
	} {
		if got := supported(c.q, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}

// Spreads are compared with the ones taken with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
