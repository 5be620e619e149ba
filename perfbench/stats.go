package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// xs, which must be sorted ascending and non-empty.
func percentile(xs []float64, q float64) float64 {
	rank := int(math.Ceil(q / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// beyond is the number of samples strictly past the nearest-rank q-th
// percentile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q/100*float64(n)))
}

// tailQ is the reported tail percentile: p99 does not repeat within a
// useful bound on a small shared host.
const tailQ = 90

// tail returns p90 and its value when at least minBeyond samples lie
// beyond it, else the median (q = 50). xs must be sorted.
func tail(xs []float64) (q, v float64) {
	if beyond(len(xs), tailQ) >= minBeyond {
		return tailQ, percentile(xs, tailQ)
	}
	return 50, median(xs)
}

// percentileOrMedian is the q-th percentile of sorted xs, or their
// median for q = 50.
func percentileOrMedian(xs []float64, q float64) float64 {
	if q == 50 {
		return median(xs)
	}
	return percentile(xs, q)
}

// median of sorted xs (mean of the two middle values for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, including its extrapolation for tiny samples.
// Needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
