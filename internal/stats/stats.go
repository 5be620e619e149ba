// Package stats provides the small statistical toolkit of the
// experiment harness and the adaptive sampler: ordinary least squares
// (which the scalability analysis of Fig. 12 uses to verify that
// execution time grows linearly with the edge count) and the
// concentration bounds of bounds.go.
package stats

import "fmt"

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
