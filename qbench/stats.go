package main

import (
	"math"
	"sort"
)

// summary is a latency distribution reduced to the percentiles the
// benchmark reports, with the sample count they rest on.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// summarize sorts xs in place and reads its percentiles by nearest rank.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	return summary{
		N:   len(xs),
		P50: percentile(xs, 0.50),
		P90: percentile(xs, 0.90),
		P99: percentile(xs, 0.99),
	}
}

// percentile returns the nearest-rank q-quantile of sorted xs: the
// smallest sample with at least q of the samples at or below it. An empty
// slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// supported reports whether the q-quantile of n samples has at least ten
// samples beyond it, the least a reported tail percentile rests on.
func supported(q float64, n int) bool {
	beyond := math.Round((1 - q) * float64(n) * 1e6) // rounded so 0.9 of 100 leaves 10, not 9.999…
	return beyond >= 10e6
}

// median of xs (which it sorts in place); 0 for none.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads printed here match the ones Python computes. One value
// is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0]
		}
		return 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// ratio is a/b, or 0 when b is 0 (a layer absent from the workload's path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
