package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"usimrank/internal/matrix"
	"usimrank/internal/mc"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// mapFoldOccupancy is the reference occupancy kernel: mc.Sample walks
// per chunk, per-step Go-map counts, and a map fold of
// float64(count)·(1/N) over the chunks in order. occupancyWith must
// reproduce its rows bit for bit. ran selects the chunks to fold (nil:
// all of them), standing in for a cancelled pool's partial run.
func mapFoldOccupancy(e *Engine, v int, salt uint64, ran func(ci int) bool) []matrix.Vec {
	chunks := e.walkChunks(v, salt)
	steps := e.opt.Steps
	total := make([]map[int32]float64, steps+1)
	for k := range total {
		total[k] = make(map[int32]float64)
	}
	invN := 1 / float64(e.opt.N)
	for ci, c := range chunks {
		if ran != nil && !ran(ci) {
			continue
		}
		w := mc.Sample(e.rev, v, steps, c.Len(), rng.New(c.Seed))
		per := make([]map[int32]int, steps+1)
		for k := range per {
			per[k] = make(map[int32]int)
		}
		for _, walk := range w.Pos {
			for k, at := range walk {
				per[k][at]++
			}
		}
		for k, m := range per {
			for at, cnt := range m {
				total[k][at] += float64(cnt) * invN
			}
		}
	}
	occ := make([]matrix.Vec, steps+1)
	for k := range occ {
		occ[k] = matrix.FromMap(total[k])
	}
	return occ
}

func sameRows(t *testing.T, where string, got, want []matrix.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", where, len(got), len(want))
	}
	for k := range want {
		if got[k].Len() != want[k].Len() {
			t.Fatalf("%s step %d: %d entries, want %d", where, k, got[k].Len(), want[k].Len())
		}
		for i := range want[k].Idx {
			if got[k].Idx[i] != want[k].Idx[i] || math.Float64bits(got[k].Val[i]) != math.Float64bits(want[k].Val[i]) {
				t.Fatalf("%s step %d entry %d: (%d, %v), want (%d, %v)", where, k, i,
					got[k].Idx[i], got[k].Val[i], want[k].Idx[i], want[k].Val[i])
			}
		}
	}
}

// certainMixGraph is testGraph with every third arc made certain
// (p = 1), so the walks cross rows that mix draw-free and drawn arcs,
// degree-1 rows, and the dead ends RMAT leaves.
func certainMixGraph() *ugraph.Graph {
	g := testGraph()
	b := ugraph.NewBuilder(g.NumVertices())
	for id := 0; id < g.NumArcs(); id++ {
		u, v, p := g.ArcEndpoints(int32(id))
		if id%3 == 0 {
			p = 1
		}
		b.AddArc(int(u), int(v), p)
	}
	return b.MustBuild()
}

// TestOccupancyMatchesMapFold pins the occupancy kernel to the reference
// map fold on every vertex, for both walk sides, serially and on a
// 4-worker pool. N = 300 splits into unequal chunks (128, 128, 44).
func TestOccupancyMatchesMapFold(t *testing.T) {
	for name, g := range map[string]*ugraph.Graph{"uncertain": testGraph(), "certain-mix": certainMixGraph()} {
		for _, par := range []int{1, 4} {
			e := newEngine(t, g, Options{N: 300, Seed: 17, Parallelism: par})
			for _, salt := range []uint64{saltWalkU, saltWalkV} {
				for v := 0; v < g.NumVertices(); v++ {
					want := mapFoldOccupancy(e, v, salt, nil)
					where := fmt.Sprintf("%s par=%d salt=%#x v=%d", name, par, salt, v)
					sameRows(t, where, e.occupancyWith(e.pool, v, salt), want)
					if salt == saltWalkV {
						got, err := e.VSideOccupancy(v)
						if err != nil {
							t.Fatal(err)
						}
						sameRows(t, where+" VSideOccupancy", got, want)
					}
				}
			}
		}
	}
}

// TestOccupancyCancelledPool: a pool view cancelled before the call
// runs no chunk, so the fold sees none (every row empty, no walks
// counted), and the skipped call leaves no stale state behind for the
// next one on the same scratch pool.
func TestOccupancyCancelledPool(t *testing.T) {
	g := testGraph()
	for _, par := range []int{1, 4} {
		e := newEngine(t, g, Options{N: 300, Seed: 3, Parallelism: par})
		e.occupancyWith(e.pool, 9, saltWalkU) // leave grids and flags in the pooled scratch
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		walks := e.KernelStats().Walks
		got := e.occupancyWith(e.pool.WithContext(ctx), 5, saltWalkU)
		sameRows(t, fmt.Sprintf("par=%d cancelled", par), got, mapFoldOccupancy(e, 5, saltWalkU, func(int) bool { return false }))
		if w := e.KernelStats().Walks; w != walks {
			t.Fatalf("par=%d: cancelled call sampled %d walks", par, w-walks)
		}
		sameRows(t, fmt.Sprintf("par=%d after cancel", par), e.occupancyWith(e.pool, 5, saltWalkU), mapFoldOccupancy(e, 5, saltWalkU, nil))
	}
}

// TestOccupancyFoldSkipsUnsampledChunks: when a cancelled pool ran only
// some chunks, the fold adds exactly those, in chunk order — the map
// fold's partial result over the same chunks.
func TestOccupancyFoldSkipsUnsampledChunks(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, Options{N: 300, Seed: 3, Parallelism: 1})
	const v = 11
	ran := func(ci int) bool { return ci != 1 }
	s := e.v2pool.Get()
	defer e.v2pool.Put(s)
	e.layoutSide(s, sideDraw{}, v, saltWalkV, e.opt.N)
	for ci := range s.cu {
		if ran(ci) {
			e.sideChunk(s, s, v, ci)
		}
	}
	sameRows(t, "partial", e.foldOccupancy(s), mapFoldOccupancy(e, v, saltWalkV, ran))
}

// TestVSideOccupancyAllocs pins the kernel's allocation budget: a warmed
// call allocates the rows it returns (two slices per step plus the row
// slice) and little else.
func TestVSideOccupancyAllocs(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, Options{N: 1000, Seed: 1})
	if _, err := e.VSideOccupancy(3); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	v := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.VSideOccupancy(v % g.NumVertices()); err != nil {
			t.Fatal(err)
		}
		v += 7
	})
	if limit := float64(2*(e.Options().Steps+1) + 8); allocs > limit {
		t.Fatalf("VSideOccupancy makes %v allocations per call, want <= %v", allocs, limit)
	}
}
