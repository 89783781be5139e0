package main

import (
	"math"
	"slices"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it sorts. It is 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

// geomean of the positive values in xs; 0 if there are none.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// windowCV is the coefficient of variation of the throughput of the full
// width-second windows of [0, total), given completion times.
func windowCV(ends []float64, total, width float64) float64 {
	n := int(total / width)
	if n < 2 {
		return 0
	}
	counts := make([]float64, n)
	for _, e := range ends {
		if i := int(e / width); i >= 0 && i < n {
			counts[i]++
		}
	}
	var mean, ss float64
	for _, c := range counts {
		mean += c / float64(n)
	}
	for _, c := range counts {
		ss += (c - mean) * (c - mean)
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// ratio is a/b, or 0 when b is 0: a counter that did not move.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
