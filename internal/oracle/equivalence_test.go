package oracle

import (
	"testing"

	"usimrank"
	"usimrank/internal/rng"
)

// randMidGraph draws a digraph big enough that the row cache, the
// invalidation BFS and the filter patch all have real work (no
// enumeration here, so no arc bound).
func randMidGraph(r *rng.RNG, n int, arcs int) *usimrank.Graph {
	b := usimrank.NewBuilder(n)
	seen := map[[2]int]bool{}
	for b.NumArcs() < arcs {
		u, v := r.Intn(n), r.Intn(n)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddArc(u, v, 0.05+0.9*r.Float64())
	}
	return b.MustBuild()
}

// stageableBatch draws a mixed valid update batch against g.
func stageableBatch(r *rng.RNG, g *usimrank.Graph, count int) []usimrank.ArcUpdate {
	var ups []usimrank.ArcUpdate
	state := map[[2]int]bool{}
	exists := func(u, v int) bool {
		if st, ok := state[[2]int{u, v}]; ok {
			return st
		}
		return g.HasArc(u, v)
	}
	for len(ups) < count {
		u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
		if exists(u, v) {
			if r.Bool(0.5) {
				ups = append(ups, usimrank.ArcUpdate{Op: usimrank.OpDelete, U: u, V: v})
				state[[2]int{u, v}] = false
			} else {
				ups = append(ups, usimrank.ArcUpdate{Op: usimrank.OpReweight, U: u, V: v, P: 0.05 + 0.9*r.Float64()})
				state[[2]int{u, v}] = true
			}
		} else {
			ups = append(ups, usimrank.ArcUpdate{Op: usimrank.OpInsert, U: u, V: v, P: 0.05 + 0.9*r.Float64()})
			state[[2]int{u, v}] = true
		}
	}
	return ups
}

// TestApplyUpdatesEquivalentAcrossAllShapes is the dynamic update
// plane's acceptance pin: after an incremental ApplyUpdates, every
// algorithm × every query shape — pairwise score, single-source,
// top-k (per-source and all-pairs), batch, and the SR-SP matrix sweep
// — returns bits identical to a from-scratch engine built on the
// mutated graph. The predecessor engine is warmed first (rows at both
// exact depths, filter pools, top-k sweeps, kept SR-TS walk grids), so
// retained state — not just recomputation — is what is being compared.
func TestApplyUpdatesEquivalentAcrossAllShapes(t *testing.T) {
	r := rng.New(60221)
	for _, optCase := range []struct {
		name string
		opt  usimrank.Options
	}{
		{"two-phase l=1", usimrank.Options{Steps: 4, N: 160, L: 1, Seed: 17, Parallelism: 2, RowCacheSize: 128}},
		{"all-exact l=n", usimrank.Options{Steps: 3, N: 80, L: 3, Seed: 23, Parallelism: 2, RowCacheSize: 128}},
	} {
		t.Run(optCase.name, func(t *testing.T) {
			var reused uint64 // walks the derived engines took from kept grids
			for trial := 0; trial < 4; trial++ {
				g := randMidGraph(r, 40+r.Intn(30), 150+r.Intn(100))
				e, err := usimrank.New(g, optCase.opt)
				if err != nil {
					t.Fatal(err)
				}
				// Warm every substrate on the predecessor.
				e.WarmFilters()
				warm := make([]int, g.NumVertices())
				for i := range warm {
					warm[i] = i
				}
				if err := e.WarmRowsFor(usimrank.AlgBaseline, warm[:len(warm)/2]); err != nil {
					t.Fatal(err)
				}
				if err := e.WarmRowsFor(usimrank.AlgTwoPhase, warm[len(warm)/2:]); err != nil {
					t.Fatal(err)
				}
				if _, err := usimrank.TopKSimilar(e, usimrank.AlgSRSP, 0, 3); err != nil {
					t.Fatal(err)
				}
				// Small SR-TS source queries, twice, so their sides' walk
				// grids are kept and the successor reuses chunks of them.
				for round := 0; round < 2; round++ {
					for _, u := range []int{0, 2} {
						if _, err := e.SingleSourceAgainst(usimrank.AlgTwoPhase, u, []int{0, 1, 2, 3}); err != nil {
							t.Fatal(err)
						}
					}
				}

				ups := stageableBatch(r, g, 1+r.Intn(5))
				reused -= e.KernelStats().WalksReused
				derived, stats, err := e.ApplyUpdates(ups)
				if err != nil {
					t.Fatalf("trial %d: %v (batch %+v)", trial, err, ups)
				}
				rebuilt, err := usimrank.New(derived.Graph(), optCase.opt)
				if err != nil {
					t.Fatal(err)
				}

				for _, alg := range usimrank.Algorithms() {
					// Shape 1: pairwise score.
					for q := 0; q < 5; q++ {
						u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
						got, err := derived.Compute(alg, u, v)
						if err != nil {
							t.Fatal(err)
						}
						want, err := rebuilt.Compute(alg, u, v)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("trial %d %v score(%d,%d): derived %v, rebuilt %v (stats %+v)",
								trial, alg, u, v, got, want, stats)
						}
					}
					// Shape 2: single-source (full sweep).
					src := r.Intn(g.NumVertices())
					gotSS, err := derived.SingleSource(alg, src)
					if err != nil {
						t.Fatal(err)
					}
					wantSS, err := rebuilt.SingleSource(alg, src)
					if err != nil {
						t.Fatal(err)
					}
					for i := range wantSS {
						if gotSS[i] != wantSS[i] {
							t.Fatalf("trial %d %v source(%d)[%d]: %v vs %v", trial, alg, src, i, gotSS[i], wantSS[i])
						}
					}
					// Shape 3: top-k, both flavours.
					gotTK, err := usimrank.TopKSimilar(derived, alg, src, 4)
					if err != nil {
						t.Fatal(err)
					}
					wantTK, err := usimrank.TopKSimilar(rebuilt, alg, src, 4)
					if err != nil {
						t.Fatal(err)
					}
					if len(gotTK) != len(wantTK) {
						t.Fatalf("trial %d %v topk(%d): %d vs %d results", trial, alg, src, len(gotTK), len(wantTK))
					}
					for i := range wantTK {
						if gotTK[i] != wantTK[i] {
							t.Fatalf("trial %d %v topk(%d)[%d]: %+v vs %+v", trial, alg, src, i, gotTK[i], wantTK[i])
						}
					}
					gotTP, err := usimrank.TopKPairs(derived, alg, 3)
					if err != nil {
						t.Fatal(err)
					}
					wantTP, err := usimrank.TopKPairs(rebuilt, alg, 3)
					if err != nil {
						t.Fatal(err)
					}
					for i := range wantTP {
						if gotTP[i] != wantTP[i] {
							t.Fatalf("trial %d %v topkpairs[%d]: %+v vs %+v", trial, alg, i, gotTP[i], wantTP[i])
						}
					}
					// Shape 4: batch (grouped by source inside the engine).
					pairs := [][2]int{{src, 0}, {src, 1}, {0, src}, {2, 3}}
					gotB := usimrank.Batch(derived, alg, pairs, 0)
					wantB := usimrank.Batch(rebuilt, alg, pairs, 0)
					for i := range wantB {
						if gotB[i].Value != wantB[i].Value {
							t.Fatalf("trial %d %v batch[%d]: %v vs %v", trial, alg, i, gotB[i].Value, wantB[i].Value)
						}
					}
				}
				// Shape 5: the SR-SP matrix sweep.
				verts := []int{0, 1, 2, 3, 4}
				gotM, err := derived.SRSPMatrix(verts)
				if err != nil {
					t.Fatal(err)
				}
				wantM, err := rebuilt.SRSPMatrix(verts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantM {
					for j := range wantM[i] {
						if gotM[i][j] != wantM[i][j] {
							t.Fatalf("trial %d SRSPMatrix[%d][%d]: %v vs %v", trial, i, j, gotM[i][j], wantM[i][j])
						}
					}
				}
				reused += derived.KernelStats().WalksReused
				// Chained derivation: a second batch on the derived engine
				// must keep the invariant.
				ups2 := stageableBatch(r, derived.Graph(), 2)
				derived2, _, err := derived.ApplyUpdates(ups2)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt2, err := usimrank.New(derived2.Graph(), optCase.opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := derived2.Compute(usimrank.AlgSRSP, 1, 2)
				if err != nil {
					t.Fatal(err)
				}
				want, err := rebuilt2.Compute(usimrank.AlgSRSP, 1, 2)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d chained: %v vs %v", trial, got, want)
				}
			}
			if sampled := optCase.opt.L < optCase.opt.Steps; sampled && reused == 0 {
				t.Fatal("no derived engine reused a kept walk chunk; the checks never covered one")
			}
		})
	}
}

// TestChainedUpdatesSRSPShapes applies 2–4 update batches in a row with
// no SR-SP query between them, so the successor's filter pools carry
// vertices invalidated by several batches that no propagation has
// re-sampled yet. Every SR-SP shape — pairwise score, single-source,
// top-k, batch and the matrix sweep — must then return the bits of a
// from-scratch engine on the final graph, with one shared pool and with
// two, at Parallelism 1 and 4.
func TestChainedUpdatesSRSPShapes(t *testing.T) {
	r := rng.New(31337)
	for _, shared := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			opt := usimrank.Options{Steps: 5, N: 192, L: 1, Seed: 29, Parallelism: par, SharedPool: shared}
			g := randMidGraph(r, 40+r.Intn(20), 160+r.Intn(80))
			e, err := usimrank.New(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			e.WarmFilters()
			for b := 0; b < 2+r.Intn(3); b++ {
				if e, _, err = e.ApplyUpdates(stageableBatch(r, e.Graph(), 1+r.Intn(5))); err != nil {
					t.Fatal(err)
				}
			}
			rebuilt, err := usimrank.New(e.Graph(), opt)
			if err != nil {
				t.Fatal(err)
			}
			n := e.Graph().NumVertices()
			src := r.Intn(n)
			gotSS, err := e.SingleSource(usimrank.AlgSRSP, src)
			if err != nil {
				t.Fatal(err)
			}
			wantSS, err := rebuilt.SingleSource(usimrank.AlgSRSP, src)
			if err != nil {
				t.Fatal(err)
			}
			for v := range wantSS {
				if gotSS[v] != wantSS[v] {
					t.Fatalf("shared=%v par=%d source(%d)[%d]: %v vs %v", shared, par, src, v, gotSS[v], wantSS[v])
				}
			}
			for q := 0; q < 5; q++ {
				u, v := r.Intn(n), r.Intn(n)
				got, err := e.Compute(usimrank.AlgSRSP, u, v)
				if err != nil {
					t.Fatal(err)
				}
				want, err := rebuilt.Compute(usimrank.AlgSRSP, u, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("shared=%v par=%d score(%d,%d): %v vs %v", shared, par, u, v, got, want)
				}
			}
			gotTK, err := usimrank.TopKSimilar(e, usimrank.AlgSRSP, src, 4)
			if err != nil {
				t.Fatal(err)
			}
			wantTK, err := usimrank.TopKSimilar(rebuilt, usimrank.AlgSRSP, src, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotTK) != len(wantTK) {
				t.Fatalf("shared=%v par=%d topk: %d vs %d results", shared, par, len(gotTK), len(wantTK))
			}
			for i := range wantTK {
				if gotTK[i] != wantTK[i] {
					t.Fatalf("shared=%v par=%d topk[%d]: %+v vs %+v", shared, par, i, gotTK[i], wantTK[i])
				}
			}
			pairs := [][2]int{{src, 0}, {src, 1}, {0, src}, {2, 3}, {3, 2}}
			gotB := usimrank.Batch(e, usimrank.AlgSRSP, pairs, 0)
			wantB := usimrank.Batch(rebuilt, usimrank.AlgSRSP, pairs, 0)
			for i := range wantB {
				if gotB[i].Err != nil || gotB[i].Value != wantB[i].Value {
					t.Fatalf("shared=%v par=%d batch[%d]: %+v vs %+v", shared, par, i, gotB[i], wantB[i])
				}
			}
			verts := []int{0, 1, 2, src}
			gotM, err := e.SRSPMatrix(verts)
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := rebuilt.SRSPMatrix(verts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantM {
				for j := range wantM[i] {
					if gotM[i][j] != wantM[i][j] {
						t.Fatalf("shared=%v par=%d SRSPMatrix[%d][%d]: %v vs %v", shared, par, i, j, gotM[i][j], wantM[i][j])
					}
				}
			}
		}
	}
}
