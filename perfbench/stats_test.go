package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ q, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{
		{1000, 90},
		{100, 90}, // exactly 10 beyond p90
		{99, 50},  // 9 beyond p90: only the median is reported
		{5, 50},
	} {
		xs := seq(c.n)
		q, v := tail(xs)
		if q != c.wantQ {
			t.Errorf("n=%d: tail percentile p%g, want p%g", c.n, q, c.wantQ)
			continue
		}
		if q != 50 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, q, beyond(c.n, q))
		}
		if want := percentile(xs, q); q != 50 && v != want {
			t.Errorf("n=%d: tail value %g, want %g", c.n, v, want)
		}
		if q == 50 && v != median(xs) {
			t.Errorf("n=%d: fallback %g is not the median %g", c.n, v, median(xs))
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := median([]float64{1, 2, 10}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The steadiness report must compute spreads exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{seq(10), 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{4, 2, 3, 1}, 1.25, 2.5, 3.75},
		// statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
		{[]float64{5, 1}, 0, 3, 6},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread(seq(10)); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %g", s)
	}
}
