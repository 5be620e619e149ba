package speedup

import (
	"math"
	"testing"

	"usimrank/internal/mc"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
	"usimrank/internal/walkpr"
)

func TestBuildFiltersOneChoicePerProcess(t *testing.T) {
	g := ugraph.PaperFig1()
	const N = 64
	f := BuildFilters(g, N, rng.New(1))
	// For every vertex and process, at most one outgoing arc may carry
	// the process's bit.
	for w := 0; w < g.NumVertices(); w++ {
		lo, hi := g.ArcRange(w)
		for i := 0; i < N; i++ {
			set := 0
			for id := lo; id < hi; id++ {
				if fv := f.Arc(id); fv != nil && fv.Get(i) {
					set++
				}
			}
			if set > 1 {
				t.Fatalf("vertex %d process %d uses %d arcs", w, i, set)
			}
		}
	}
}

func TestBuildFiltersChoiceFrequencies(t *testing.T) {
	// Vertex 0 has two certain arcs; each must be chosen ~half the time.
	b := ugraph.NewBuilder(3)
	b.AddArc(0, 1, 1)
	b.AddArc(0, 2, 1)
	g := b.MustBuild()
	const N = 40000
	f := BuildFilters(g, N, rng.New(5))
	c0 := f.Arc(0).PopCount()
	c1 := f.Arc(1).PopCount()
	if c0+c1 != N {
		t.Fatalf("certain arcs chosen %d+%d times, want %d", c0, c1, N)
	}
	if math.Abs(float64(c0)/N-0.5) > 0.01 {
		t.Fatalf("arc 0 chosen with frequency %v", float64(c0)/N)
	}
}

func TestBuildFiltersRespectsProbabilities(t *testing.T) {
	// Single arc with p = 0.3: chosen exactly when instantiated.
	b := ugraph.NewBuilder(2)
	b.AddArc(0, 1, 0.3)
	g := b.MustBuild()
	const N = 40000
	f := BuildFilters(g, N, rng.New(7))
	got := float64(f.Arc(0).PopCount()) / N
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("arc used with frequency %v, want 0.3", got)
	}
}

func TestPropagateDeterministicPath(t *testing.T) {
	// Functional certain graph 0→1→2→0: every process follows the path,
	// so each level has all N bits on exactly one vertex.
	b := ugraph.NewBuilder(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 1)
	b.AddArc(2, 0, 1)
	g := b.MustBuild()
	const N = 128
	f := BuildFilters(g, N, rng.New(3))
	tab := Propagate(f, 0, 6)
	wantAt := []int32{0, 1, 2, 0, 1, 2, 0}
	for k := 0; k <= 6; k++ {
		lvl := tab.Vertices(k)
		if len(lvl) != 1 {
			t.Fatalf("level %d has %d vertices", k, len(lvl))
		}
		if lvl[0] != wantAt[k] || tab.PopCount(k, wantAt[k]) != N {
			t.Fatalf("level %d: expected all bits at %d", k, wantAt[k])
		}
	}
}

func TestPropagateDeadProcessesDisappear(t *testing.T) {
	// 0 → 1 with p=0.5, 1 is a sink: level 1 holds only the surviving
	// processes, level 2 is empty.
	b := ugraph.NewBuilder(2)
	b.AddArc(0, 1, 0.5)
	g := b.MustBuild()
	const N = 20000
	f := BuildFilters(g, N, rng.New(11))
	tab := Propagate(f, 0, 2)
	alive := tab.PopCount(1, 1)
	if math.Abs(float64(alive)/N-0.5) > 0.02 {
		t.Fatalf("survivors %v, want ≈0.5", float64(alive)/N)
	}
	if len(tab.Vertices(2)) != 0 {
		t.Fatalf("level 2 should be empty, has %d vertices", len(tab.Vertices(2)))
	}
}

// TestEstimateUnbiasedHighGirth compares Eq. 16 estimates (independent
// pools) with exact meeting probabilities on a graph whose girth exceeds
// the walk length, where fixed-choice and re-rolled-choice sampling
// coincide.
func TestEstimateUnbiasedHighGirth(t *testing.T) {
	// 8-cycle with probabilistic chords; girth of the skeleton is 8 > n=3.
	b := ugraph.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddArc(i, (i+1)%8, 0.5+0.05*float64(i))
	}
	b.AddArc(0, 2, 0.4)
	b.AddArc(3, 5, 0.7)
	g := b.MustBuild()

	const N, n = 60000, 3
	u, v := 0, 3
	r := rng.New(13)
	fu := BuildFilters(g, N, r.Split())
	fv := BuildFilters(g, N, r.Split())
	got := Estimate(fu, fv, u, v, n)

	rowsU, err := walkpr.TransitionRows(g, u, n, walkpr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rowsV, err := walkpr.TransitionRows(g, v, n, walkpr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= n; k++ {
		want := rowsU[k].Dot(rowsV[k])
		if math.Abs(got[k]-want) > 0.01 {
			t.Fatalf("m̂(%d) = %v, exact %v", k, got[k], want)
		}
	}
}

// TestEstimateMatchesSamplingStatistically runs both estimators on the
// Fig. 1 graph and checks they agree within Monte Carlo tolerance for a
// pair of vertices whose short walks do not revisit (u=v4, v=v5, n=2).
func TestEstimateMatchesSamplingStatistically(t *testing.T) {
	g := ugraph.PaperFig1()
	const N, n = 60000, 2
	u, v := 3, 4
	r := rng.New(41)
	fu := BuildFilters(g, N, r.Split())
	fv := BuildFilters(g, N, r.Split())
	sp := Estimate(fu, fv, u, v, n)

	r2 := rng.New(43)
	wu := mc.Sample(g, u, n, N, r2)
	wv := mc.Sample(g, v, n, N, r2)
	ms := mc.MeetingEstimates(wu, wv)

	for k := 0; k <= n; k++ {
		if math.Abs(sp[k]-ms[k]) > 0.012 {
			t.Fatalf("k=%d: speedup %v vs sampling %v", k, sp[k], ms[k])
		}
	}
}

func TestSharedPoolSelfPairIsDegenerate(t *testing.T) {
	// With a shared pool and u == v the two walk sets are identical, so
	// m̂(k) = survival fraction at step k (every surviving pair "meets").
	// This documents the coupling the shared pool introduces.
	g := ugraph.PaperFig1()
	const N, n = 2000, 3
	f := BuildFilters(g, N, rng.New(19))
	m := Estimate(f, f, 2, 2, n)
	for k := 0; k <= n; k++ {
		tab := Propagate(f, 2, n)
		survive := 0
		for _, w := range tab.Vertices(k) {
			survive += tab.PopCount(k, w)
		}
		want := float64(survive) / N
		if math.Abs(m[k]-want) > 1e-12 {
			t.Fatalf("k=%d: shared-pool self-pair m̂ = %v, survival %v", k, m[k], want)
		}
	}
}

func TestEstimatePanicsOnDifferentGraphs(t *testing.T) {
	g1 := ugraph.PaperFig1()
	g2 := ugraph.PaperFig1()
	f1 := BuildFilters(g1, 8, rng.New(1))
	f2 := BuildFilters(g2, 8, rng.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-graph estimate accepted")
		}
	}()
	Estimate(f1, f2, 0, 1, 2)
}

func TestMeetingEstimatesMismatchedPanics(t *testing.T) {
	g := ugraph.PaperFig1()
	fa := BuildFilters(g, 8, rng.New(1))
	fb := BuildFilters(g, 16, rng.New(2))
	ta := Propagate(fa, 0, 2)
	tb := Propagate(fb, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched tables accepted")
		}
	}()
	MeetingEstimates(ta, tb)
}

func TestBuildFiltersPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=0 accepted")
		}
	}()
	BuildFilters(ugraph.PaperFig1(), 0, rng.New(1))
}

func BenchmarkPropagateFig1(b *testing.B) {
	g := ugraph.PaperFig1()
	f := BuildFilters(g, 1000, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Propagate(f, 0, 5)
	}
}

func BenchmarkBuildFiltersFig1(b *testing.B) {
	g := ugraph.PaperFig1()
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFilters(g, 1000, r)
	}
}

// TestPatchFiltersMatchesFreshBuild pins the derive-on-update identity:
// patching a pool across a mutation is bit-identical to building a
// fresh pool over the mutated graph from the same root RNG.
func TestPatchFiltersMatchesFreshBuild(t *testing.T) {
	r := rng.New(909)
	const N = 96
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(10)
		b := ugraph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if r.Bool(0.3) {
					b.AddArc(u, v, 0.05+0.95*r.Float64())
				}
			}
		}
		g := b.MustBuild()
		old := BuildFilters(g, N, rng.New(42))

		// Random mutation batch; touched = tails of the mutated arcs
		// (the vertices whose out-row changes).
		d := ugraph.NewDelta(g)
		touchedSet := map[int32]bool{}
		for i := 0; i < 1+r.Intn(4); i++ {
			u, v := r.Intn(n), r.Intn(n)
			var up ugraph.ArcUpdate
			if d.Prob(u, v) > 0 {
				if r.Bool(0.5) {
					up = ugraph.ArcUpdate{Op: ugraph.OpDelete, U: u, V: v}
				} else {
					up = ugraph.ArcUpdate{Op: ugraph.OpReweight, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
				}
			} else {
				up = ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
			}
			if err := d.Stage(up); err != nil {
				t.Fatal(err)
			}
			touchedSet[int32(u)] = true
		}
		newG := d.Compact()
		var touched []int32
		for w := range touchedSet {
			touched = append(touched, w)
		}

		patched := PatchFilters(old, newG, touched)
		patched.Materialize(nil)
		fresh := BuildFilters(newG, N, rng.New(42))
		if patched.N != fresh.N || patched.g.NumArcs() != fresh.g.NumArcs() {
			t.Fatalf("shape mismatch: N %d/%d arcs %d/%d", patched.N, fresh.N, patched.g.NumArcs(), fresh.g.NumArcs())
		}
		for id := int32(0); id < int32(fresh.g.NumArcs()); id++ {
			pv, fv := patched.Arc(id), fresh.Arc(id)
			switch {
			case pv == nil && fv == nil:
			case pv == nil || fv == nil:
				t.Fatalf("trial %d arc %d: nil mismatch (patched %v, fresh %v)", trial, id, pv != nil, fv != nil)
			default:
				for i := 0; i < N; i++ {
					if pv.Get(i) != fv.Get(i) {
						t.Fatalf("trial %d arc %d bit %d differs", trial, id, i)
					}
				}
			}
		}
	}
}

func TestPatchFiltersPanicsOnUnmarkedRowChange(t *testing.T) {
	g := ugraph.PaperFig1()
	old := BuildFilters(g, 8, rng.New(1))
	newG, err := g.Apply([]ugraph.ArcUpdate{{Op: ugraph.OpInsert, U: 0, V: 0, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unmarked row-length change")
		}
	}()
	PatchFilters(old, newG, nil) // vertex 0 grew a row arc but is not marked
}
