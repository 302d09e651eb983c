package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of sorted (the
// smallest sample with at least p% of the samples at or below it) and
// the number of samples strictly beyond that rank. sorted must be in
// ascending order and non-empty; p is in (0, 100].
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	// The epsilon keeps p*n/100 products like 99.9*1000/100 from
	// rounding up past an exact integer rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
