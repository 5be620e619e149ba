package stats

import (
	"math"
	"testing"
	"testing/quick"

	"usimrank/internal/rng"
)

const eps = 1e-12

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	l := FitLinear(x, y)
	if math.Abs(l.Slope-2) > eps || math.Abs(l.Intercept-1) > eps || math.Abs(l.R2-1) > eps {
		t.Fatalf("fit %+v", l)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	r := rng.New(9)
	var x, y []float64
	for i := 0; i < 2000; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 5+0.5*xi+r.NormFloat64())
	}
	l := FitLinear(x, y)
	if math.Abs(l.Slope-0.5) > 0.01 {
		t.Fatalf("slope %v", l.Slope)
	}
	if l.R2 < 0.99 {
		t.Fatalf("R2 %v", l.R2)
	}
}

func TestFitLinearConstantY(t *testing.T) {
	l := FitLinear([]float64{1, 2, 3}, []float64{7, 7, 7})
	if l.Slope != 0 || l.Intercept != 7 || l.R2 != 1 {
		t.Fatalf("fit %+v", l)
	}
}

func TestFitLinearPanics(t *testing.T) {
	for _, f := range []func(){
		func() { FitLinear([]float64{1}, []float64{1}) },
		func() { FitLinear([]float64{1, 2}, []float64{1}) },
		func() { FitLinear([]float64{3, 3}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad fit arguments accepted")
				}
			}()
			f()
		}()
	}
}

// Property: fitting y = a + b·x recovers a and b exactly.
func TestQuickFitRecovers(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := r.Float64()*10 - 5
		b := r.Float64()*10 - 5
		var x, y []float64
		for i := 0; i < 10; i++ {
			xi := float64(i) + r.Float64()
			x = append(x, xi)
			y = append(y, a+b*xi)
		}
		l := FitLinear(x, y)
		return math.Abs(l.Slope-b) < 1e-9 && math.Abs(l.Intercept-a) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
