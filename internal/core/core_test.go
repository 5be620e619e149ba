package core

import (
	"math"
	"testing"
	"testing/quick"

	"usimrank/internal/detsim"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

const eps = 1e-10

func newEngine(t *testing.T, g *ugraph.Graph, opt Options) *Engine {
	t.Helper()
	e, err := NewEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOptionsDefaults(t *testing.T) {
	e := newEngine(t, ugraph.PaperFig1(), Options{})
	o := e.Options()
	if o.C != 0.6 || o.Steps != 5 || o.N != 1000 || o.L != 1 || o.Seed != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := ugraph.PaperFig1()
	bad := []Options{
		{C: 1.2},
		{C: -0.1},
		{Steps: -3},
		{N: -1},
		{L: 9, Steps: 5},
		{L: -2},
	}
	for _, o := range bad {
		if _, err := NewEngine(g, o); err == nil {
			t.Fatalf("options %+v accepted", o)
		}
	}
}

func TestCombineHandComputed(t *testing.T) {
	// m = [1, 0.5, 0.25], c = 0.5, n = 2:
	// s = 0.25·0.25 + 0.5·(1·1 + 0.5·0.5) = 0.0625 + 0.625 = 0.6875.
	m := []float64{1, 0.5, 0.25}
	if got := Combine(m, 0.5, 2); math.Abs(got-0.6875) > eps {
		t.Fatalf("Combine = %v", got)
	}
}

func TestCombineNZero(t *testing.T) {
	// s(0) = m(0): the identity term.
	if got := Combine([]float64{0.75}, 0.6, 0); got != 0.75 {
		t.Fatalf("s(0) = %v", got)
	}
}

func TestCombinePanicsShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short slice accepted")
		}
	}()
	Combine([]float64{1}, 0.5, 3)
}

func TestCombineTwoPhaseConsistency(t *testing.T) {
	// When exact and sampled agree, the two-phase combination equals the
	// plain combination for every split l.
	m := []float64{1, 0.4, 0.3, 0.2, 0.1, 0.05}
	c, n := 0.6, 5
	want := Combine(m, c, n)
	for l := 0; l < n; l++ {
		if got := CombineTwoPhase(m[:l+1], m, c, l, n); math.Abs(got-want) > eps {
			t.Fatalf("l=%d: %v vs %v", l, got, want)
		}
	}
	// l ≥ n uses exact only.
	if got := CombineTwoPhase(m, nil, c, n, n); math.Abs(got-want) > eps {
		t.Fatalf("l=n: %v vs %v", got, want)
	}
}

func TestErrorBounds(t *testing.T) {
	if got := ErrorBound(0.6, 5); math.Abs(got-math.Pow(0.6, 6)) > eps {
		t.Fatalf("ErrorBound = %v", got)
	}
	if got := TwoPhaseErrorBound(0.6, 1, 5); math.Abs(got-(0.36-math.Pow(0.6, 5))) > eps {
		t.Fatalf("TwoPhaseErrorBound = %v", got)
	}
	// Larger l shrinks the bound (Cor. 1).
	if TwoPhaseErrorBound(0.6, 2, 5) >= TwoPhaseErrorBound(0.6, 1, 5) {
		t.Fatal("bound not decreasing in l")
	}
}

func TestBaselineRangeAndSymmetry(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{})
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			suv, err := e.Baseline(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if suv < -eps || suv > 1+eps {
				t.Fatalf("s(%d,%d) = %v out of [0,1]", u, v, suv)
			}
			svu, err := e.Baseline(v, u)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(suv-svu) > eps {
				t.Fatalf("s(%d,%d)=%v ≠ s(%d,%d)=%v", u, v, suv, v, u, svu)
			}
		}
	}
}

func TestBaselineVertexValidation(t *testing.T) {
	e := newEngine(t, ugraph.PaperFig1(), Options{})
	if _, err := e.Baseline(-1, 0); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if _, err := e.Baseline(0, 17); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

// TestTheorem3 verifies that on an all-certain uncertain graph the
// measure equals deterministic random-walk SimRank.
func TestTheorem3(t *testing.T) {
	// A small deterministic graph with cycles and sinks.
	b := ugraph.NewBuilder(6)
	for _, a := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}, {1, 5}} {
		b.AddArc(a[0], a[1], 1)
	}
	g := b.MustBuild()
	e := newEngine(t, g, Options{C: 0.6, Steps: 5})
	sk := g.Skeleton()
	for u := 0; u < 6; u++ {
		for v := u; v < 6; v++ {
			want := detsim.SinglePair(sk, u, v, 0.6, 5)
			got, err := e.Baseline(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("s(%d,%d): uncertain %v vs deterministic %v", u, v, got, want)
			}
		}
	}
}

// TestTheorem2 verifies |s(n) − s(m)| ≤ c^(n+1) for m > n along the
// iterate sequence: the tail the truncation discards is bounded by the
// Theorem 2 geometric bound.
func TestTheorem2Truncation(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{C: 0.6})
	for u := 0; u < 5; u++ {
		for v := u; v < 5; v++ {
			series, err := e.Series(u, v, 12)
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n < 12; n++ {
				for m := n + 1; m <= 12; m++ {
					if d := math.Abs(series[n] - series[m]); d > ErrorBound(0.6, n)+eps {
						t.Fatalf("(%d,%d): |s(%d)−s(%d)| = %v > c^%d = %v",
							u, v, n, m, d, n+1, ErrorBound(0.6, n))
					}
				}
			}
		}
	}
}

func TestSeriesConvergence(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{C: 0.6})
	series, err := e.Series(0, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	// Successive differences must shrink geometrically; by n = 10 the
	// iterate is stable to ~c^11 ≈ 0.0036.
	if d := math.Abs(series[14] - series[10]); d > 0.004 {
		t.Fatalf("series not converged: |s(14)−s(10)| = %v", d)
	}
}

func TestSamplingCloseToBaseline(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{N: 40000, Seed: 7})
	pairs := [][2]int{{0, 1}, {0, 3}, {2, 4}, {1, 3}}
	for _, p := range pairs {
		exact, err := e.Baseline(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		approx, err := e.Sampling(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 0.01 {
			t.Fatalf("pair %v: baseline %v, sampling %v", p, exact, approx)
		}
	}
}

func TestSamplingDeterministicPerSeed(t *testing.T) {
	g := ugraph.PaperFig1()
	e1 := newEngine(t, g, Options{Seed: 11})
	e2 := newEngine(t, g, Options{Seed: 11})
	a, err := e1.Sampling(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.Sampling(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
	e3 := newEngine(t, g, Options{Seed: 12})
	c, err := e3.Sampling(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical estimates (suspicious)")
	}
}

func TestTwoPhaseCloseToBaseline(t *testing.T) {
	g := ugraph.PaperFig1()
	for _, l := range []int{1, 2, 3} {
		e := newEngine(t, g, Options{N: 40000, L: l, Seed: 3})
		exact, err := e.Baseline(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := e.TwoPhase(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 0.01 {
			t.Fatalf("l=%d: baseline %v, two-phase %v", l, exact, approx)
		}
	}
}

func TestTwoPhaseLEqualsStepsIsExact(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{L: 5, Steps: 5})
	exact, err := e.Baseline(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := e.TwoPhase(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-tp) > eps {
		t.Fatalf("l = n should be exact: %v vs %v", tp, exact)
	}
}

func TestSRSPCloseToBaseline(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{N: 40000, L: 1, Seed: 5})
	pairs := [][2]int{{0, 1}, {3, 4}, {1, 2}}
	for _, p := range pairs {
		exact, err := e.Baseline(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		approx, err := e.SRSP(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 0.015 {
			t.Fatalf("pair %v: baseline %v, SR-SP %v", p, exact, approx)
		}
	}
}

// TestTwoPhaseMoreAccurateThanSampling reproduces the paper's core
// accuracy claim (Fig. 10): with a modest N, the two-phase estimate has
// a smaller average error than pure sampling because the dominant
// low-k terms are exact.
func TestTwoPhaseMoreAccurateThanSampling(t *testing.T) {
	g := ugraph.PaperFig1()
	// Pairs whose vertices share in-neighbours, so the exact prefix of
	// the two-phase algorithm covers meeting probability mass: in the
	// Fig. 1 graph, in(v1) ∩ in(v3) = {v2} and in(v2) ∩ in(v5) = {v4}.
	pairs := [][2]int{{0, 2}, {1, 4}}
	const trials = 40
	var errSamp, errTP float64
	for i := 0; i < trials; i++ {
		e := newEngine(t, g, Options{N: 100, L: 2, Seed: uint64(1000 + i)})
		for _, p := range pairs {
			exact, err := e.Baseline(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.Sampling(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			tp, err := e.TwoPhase(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			errSamp += math.Abs(s - exact)
			errTP += math.Abs(tp - exact)
		}
	}
	if errTP >= errSamp {
		t.Fatalf("two-phase avg error %v not below sampling %v",
			errTP/(trials*2), errSamp/(trials*2))
	}
}

func TestMeetingExactSelfPairStartsAtOne(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{})
	m, err := e.MeetingExact(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 1 {
		t.Fatalf("m(0)(u,u) = %v", m[0])
	}
	for k, x := range m {
		if x < -eps || x > 1+eps {
			t.Fatalf("m(%d) = %v", k, x)
		}
	}
}

func TestRowCacheCorrectness(t *testing.T) {
	g := ugraph.PaperFig1()
	e := newEngine(t, g, Options{RowCacheSize: 2})
	// Compute with cold cache, warm cache and evicted cache; all equal.
	a, err := e.Baseline(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Baseline(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Baseline(2, 3); err != nil { // evicts
		t.Fatal(err)
	}
	c, err := e.Baseline(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || b != c {
		t.Fatalf("cache changed results: %v %v %v", a, b, c)
	}
}

// Property: on random small uncertain graphs the Baseline is symmetric,
// bounded, and its series respects the Theorem 2 bound.
func TestQuickBaselineInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(4)
		b := ugraph.NewBuilder(n)
		arcs := 0
		for u := 0; u < n && arcs < 10; u++ {
			for v := 0; v < n && arcs < 10; v++ {
				if r.Bool(0.5) {
					b.AddArc(u, v, 0.1+0.9*r.Float64())
					arcs++
				}
			}
		}
		g := b.MustBuild()
		e, err := NewEngine(g, Options{C: 0.6, Steps: 4})
		if err != nil {
			return false
		}
		u, v := r.Intn(n), r.Intn(n)
		suv, err := e.Baseline(u, v)
		if err != nil {
			return false
		}
		svu, err := e.Baseline(v, u)
		if err != nil {
			return false
		}
		return suv >= -eps && suv <= 1+eps && math.Abs(suv-svu) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
