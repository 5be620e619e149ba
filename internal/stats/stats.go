// Package stats provides the small statistical toolkit of the
// experiment harness and the adaptive sampler: ordinary least squares
// (which the scalability analysis of Fig. 12 uses to verify that
// execution time grows linearly with the edge count), a sample
// quantile, and the concentration bounds of bounds.go.
package stats

import (
	"fmt"
	"sort"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation of the sorted sample. It panics on an empty sample or a
// q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Linear is a fitted line y = Intercept + Slope·x with its coefficient
// of determination.
type Linear struct {
	Slope, Intercept, R2 float64
}

// FitLinear computes the ordinary least squares fit of y on x. It panics
// when the lengths differ or fewer than two points are given.
func FitLinear(x, y []float64) Linear {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: mismatched lengths %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		panic("stats: need at least two points")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: degenerate x (no variance)")
	}
	l := Linear{Slope: sxy / sxx}
	l.Intercept = my - l.Slope*mx
	if syy == 0 {
		l.R2 = 1 // constant y fitted exactly
	} else {
		l.R2 = (sxy * sxy) / (sxx * syy)
	}
	return l
}
