package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"usimrank/internal/gen"
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// gridPinGraph is a random uncertain graph whose reversed rows — the
// rows the walks step along — mix every shape the grid sampler treats
// differently: dead ends, self-loops, certain (p = 1) arcs among
// uncertain ones, and degree-1 rows. Self-loops and the graph's size
// make walks revisit vertices, so a walk's instantiated out-sets get
// reused.
func gridPinGraph(n int, seed uint64) *ugraph.Graph {
	r := rng.New(seed)
	b := ugraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		// v's reversed row is its in-arcs: none (a dead end), one, or a few.
		deg := min(v%5, n)
		in := make(map[int]bool, deg)
		for len(in) < deg {
			w := r.Intn(n)
			if r.Intn(5) == 0 {
				w = v
			}
			if in[w] {
				continue
			}
			in[w] = true
			p := 1.0
			if r.Intn(3) > 0 {
				p = 0.05 + 0.9*r.Float64()
			}
			b.AddArc(w, v, p)
		}
	}
	return b.MustBuild()
}

// requireRowShapes fails unless the reversed graph has a dead end, a
// self-loop, a certain arc and a degree-1 row.
func requireRowShapes(t *testing.T, rev *ugraph.Graph) {
	t.Helper()
	var dead, self, certain, single bool
	for v := 0; v < rev.NumVertices(); v++ {
		out, ps := rev.Out(v), rev.OutProbs(v)
		dead = dead || len(out) == 0
		single = single || len(out) == 1
		for i, w := range out {
			self = self || int(w) == v
			certain = certain || ps[i] == 1
		}
	}
	if !(dead && self && certain && single) {
		t.Fatalf("pin graph lacks a row shape: dead end %v, self-loop %v, certain arc %v, degree-1 row %v", dead, self, certain, single)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// walkChunks splits the N walk samples of one vertex-side into
// fixed-size chunks, each seeded from the side's stream in chunk order
// — the chunk set layoutSide lays out, for the map-based references.
func (e *Engine) walkChunks(v int, salt uint64) []parallel.Chunk {
	return parallel.SplitChunks(e.opt.N, parallel.DefaultChunkSize, rng.New(e.sideSeed(v, salt)))
}

// meetingSampledMap is the map-based Sampling tail the grid kernels are
// pinned to, MeetingSampled as it was before the engine drew every walk
// on grids: per chunk, mc.Sample's walks of both sides (one LazyWorld
// map per walk), counted by mc.MeetingCounts, the integer counts merged
// in chunk order.
func (e *Engine) meetingSampledMap(u, v int) ([]float64, error) {
	if err := e.checkVertex(u); err != nil {
		return nil, err
	}
	if err := e.checkVertex(v); err != nil {
		return nil, err
	}
	cu := e.walkChunks(u, saltWalkU)
	cv := e.walkChunks(v, saltWalkV)
	counts := make([][]int, len(cu))
	e.pool.For(len(cu), func(ci int) {
		wu := mc.Sample(e.rev, u, e.opt.Steps, cu[ci].Len(), rng.New(cu[ci].Seed))
		wv := mc.Sample(e.rev, v, e.opt.Steps, cv[ci].Len(), rng.New(cv[ci].Seed))
		counts[ci] = mc.MeetingCounts(wu, wv)
	})
	m := make([]float64, e.opt.Steps+1)
	for _, c := range counts {
		for k, x := range c {
			m[k] += float64(x)
		}
	}
	for k := range m {
		m[k] /= float64(e.opt.N)
	}
	return m, nil
}

// TestTwoPhaseGridTailMatchesMapPath pins the grid-drawn Sampling tail
// to the map path bit for bit. For every pair, meetingGridWith must
// return meetingSampledMap(u, v) — mc.Sample's walks, counted by
// MeetingCounts — and Compute, SingleSourceAgainst and Batch must equal
// CombineTwoPhase of the exact prefix and that map tail over
// AlgTwoPhase, and Combine of the map tail over AlgSampling. N covers
// one walk, chunk boundaries (127, 128, 129) and the default; Steps
// and the split l vary the tail's length, including an empty tail
// (l = Steps). Options.L = 0 selects the default split, so l = 0 is set
// on the engine directly.
func TestTwoPhaseGridTailMatchesMapPath(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		g := gridPinGraph(10, seed)
		n := g.NumVertices()
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		for _, N := range []int{1, 127, 128, 129, 1000} {
			for _, steps := range []int{1, 5, 8} {
				ref := newEngine(t, g, Options{N: N, Steps: steps, Seed: seed, Parallelism: 1})
				requireRowShapes(t, ref.rev)
				tails := make([][]float64, len(pairs))
				for i, p := range pairs {
					m, err := ref.meetingSampledMap(p[0], p[1])
					if err != nil {
						t.Fatal(err)
					}
					tails[i] = m
				}
				for _, l := range []int{0, 1, 2} {
					if l > steps {
						continue
					}
					for _, par := range []int{1, 4} {
						e := newEngine(t, g, Options{N: N, Steps: steps, L: max(l, 1), Seed: seed, Parallelism: par})
						e.opt.L = l
						where := fmt.Sprintf("seed=%d N=%d steps=%d l=%d par=%d", seed, N, steps, l, par)
						checkGridTail(t, where, e, pairs, tails)
					}
				}
			}
		}
	}
}

// checkGridTail compares every twophase and sampling query shape on e
// against the map tails (tails[i] = meetingSampledMap of pairs[i]).
// Sampling's source queries run twice after SR-TS's: the two share
// their walk streams, so the memo serves Sampling's sides too.
func checkGridTail(t *testing.T, where string, e *Engine, pairs [][2]int, tails [][]float64) {
	t.Helper()
	wantTP := make([]float64, len(pairs))
	wantS := make([]float64, len(pairs))
	for i, p := range pairs {
		exact, err := e.MeetingExact(p[0], p[1], e.splitDepth())
		if err != nil {
			t.Fatal(err)
		}
		wantTP[i] = CombineTwoPhase(exact, tails[i], e.opt.C, e.opt.L, e.opt.Steps)
		wantS[i] = Combine(tails[i], e.opt.C, e.opt.Steps)

		s := e.v2pool.Get()
		got := e.meetingGridWith(e.pool, s, nil, p[0], p[1])
		for k := range tails[i] {
			if !sameBits(got[k], tails[i][k]) {
				t.Fatalf("%s (%d,%d): grid tail m̂(%d) = %v, the map path has %v", where, p[0], p[1], k, got[k], tails[i][k])
			}
		}
		e.v2pool.Put(s)
	}
	n := e.Graph().NumVertices()
	all := e.allCandidates()
	for _, c := range []struct {
		alg        Algorithm
		want       []float64
		sourceRuns int
	}{{AlgTwoPhase, wantTP, 1}, {AlgSampling, wantS, 2}} {
		for i, p := range pairs {
			got, err := e.Compute(c.alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, c.want[i]) {
				t.Fatalf("%s (%d,%d): %v = %v, map-tail combination %v", where, p[0], p[1], c.alg, got, c.want[i])
			}
		}
		for run := 0; run < c.sourceRuns; run++ {
			for u := 0; u < n; u++ {
				got, err := e.SingleSourceAgainst(c.alg, u, all)
				if err != nil {
					t.Fatal(err)
				}
				for v, s := range got {
					if w := c.want[u*n+v]; !sameBits(s, w) {
						t.Fatalf("%s: %v SingleSourceAgainst run %d s(%d,%d) = %v, map-tail combination %v", where, c.alg, run, u, v, s, w)
					}
				}
			}
		}
		for i, r := range Batch(e, c.alg, pairs, 0) {
			if r.Err != nil || !sameBits(r.Value, c.want[i]) {
				t.Fatalf("%s: %v Batch s(%d,%d) = %v, %v; map-tail combination %v", where, c.alg, r.U, r.V, r.Value, r.Err, c.want[i])
			}
		}
	}
	if e.KernelStats().WalksReused == 0 {
		t.Fatalf("%s: the walk memo served no side", where)
	}
}

// TestTwoPhaseGridTailCancelled: on an already-cancelled context every
// twophase entry point returns the context error, and the kernels run
// on a cancelled pool view skip every chunk and candidate — no walks
// drawn, an all-zero tail, no panic.
func TestTwoPhaseGridTailCancelled(t *testing.T) {
	g := gridPinGraph(10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		e := newEngine(t, g, Options{N: 300, Seed: 3, Parallelism: par})
		if _, err := e.TwoPhase(1, 2); err != nil { // leave grids in the pooled scratch
			t.Fatal(err)
		}
		walks := e.KernelStats().Walks
		if _, err := e.ComputeCtx(ctx, AlgTwoPhase, 1, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: ComputeCtx error %v, want context.Canceled", par, err)
		}
		if _, err := e.SingleSourceAgainstCtx(ctx, AlgTwoPhase, 1, []int{2, 3}); !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: SingleSourceAgainstCtx error %v, want context.Canceled", par, err)
		}
		if _, err := BatchCtx(ctx, e, AlgTwoPhase, [][2]int{{1, 2}, {4, 2}}, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: BatchCtx error %v, want context.Canceled", par, err)
		}
		p := e.pool.WithContext(ctx)
		s := e.v2pool.Get()
		for k, m := range e.meetingGridWith(p, s, nil, 1, 2) {
			if m != 0 {
				t.Fatalf("par=%d: cancelled grid tail m̂(%d) = %v, want 0", par, k, m)
			}
		}
		e.v2pool.Put(s)
		out := []float64{-1, -1}
		if err := e.twoPhaseKernel(p, AlgTwoPhase.row(), 1, []int{2, 3}, out, make([]error, 2)); err != nil {
			t.Fatal(err)
		}
		if out[0] != -1 || out[1] != -1 {
			t.Fatalf("par=%d: cancelled source kernel scored candidates: %v", par, out)
		}
		if w := e.KernelStats().Walks; w != walks {
			t.Fatalf("par=%d: cancelled queries drew %d walks", par, w-walks)
		}
	}
}

// TestGridKernelsConcurrentQueries runs the four kernels that share the
// engine's v2 scratch pool — twophase pair and source (grid tail),
// sampling_v2 source, indexed source (occupancy residual) — from many
// goroutines on one engine, and checks every answer against a serial
// run. Run it under -race.
func TestGridKernelsConcurrentQueries(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, Options{N: 300, Seed: 9, Parallelism: 3})
	x := buildMemIndex(t, e)
	cands := []int{0, 5, 17, 40, 63, 64, 90}
	type query func(u int) ([]float64, error)
	queries := []query{
		func(u int) ([]float64, error) {
			s, err := e.TwoPhase(u, cands[u%len(cands)])
			return []float64{s}, err
		},
		func(u int) ([]float64, error) { return e.SingleSourceAgainst(AlgTwoPhase, u, cands) },
		func(u int) ([]float64, error) { return e.SingleSourceAgainst(AlgSamplingV2, u, cands) },
		func(u int) ([]float64, error) { return e.SingleSourceIndexedAgainst(x, u, cands) },
	}
	sources := []int{1, 2, 17, 33, 63, 100}
	want := make([][][]float64, len(queries))
	for qi, q := range queries {
		for _, u := range sources {
			out, err := q(u)
			if err != nil {
				t.Fatal(err)
			}
			want[qi] = append(want[qi], out)
		}
	}
	const goroutines = 12
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for j := range sources {
					qi, si := (gi+j)%len(queries), (gi*5+j+round)%len(sources)
					got, err := queries[qi](sources[si])
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						if !sameBits(got[i], want[qi][si][i]) {
							t.Errorf("goroutine %d: query %d source %d: [%d] = %v, serial %v", gi, qi, sources[si], i, got[i], want[qi][si][i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTwoPhaseGridTailAllocs pins the grid tail's allocation budget on
// a warmed engine at Parallelism 1 with every row cached: a pair query
// stays within a small constant, and a source query within a few
// allocations per candidate, at any N. The map path made thousands per
// query (one LazyWorld map and one walk slice per walk).
func TestTwoPhaseGridTailAllocs(t *testing.T) {
	g := gen.WithUniformProbs(gen.RMAT(9, 4096, 0.45, 0.22, 0.22, rng.New(1)), 0.2, 0.9, rng.New(2))
	cands := make([]int, 32)
	for i := range cands {
		cands[i] = (i*13 + 1) % g.NumVertices()
	}
	out := make([]float64, len(cands))
	for _, N := range []int{256, 1024, 4096} {
		e := newEngine(t, g, Options{N: N, Seed: 1, Parallelism: 1})
		if err := e.WarmRowsFor(AlgTwoPhase, append([]int{0, 7}, cands...)); err != nil {
			t.Fatal(err)
		}
		if err := e.SingleSourceAgainstInto(AlgTwoPhase, 0, cands, out); err != nil { // size the scratch
			t.Fatal(err)
		}
		if N == 1024 {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := e.TwoPhase(0, 7); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("N=%d: TwoPhase makes %v allocations", N, allocs)
			if allocs > 20 {
				t.Errorf("N=%d: TwoPhase makes %v allocations, want <= 20", N, allocs)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := e.SingleSourceAgainstInto(AlgTwoPhase, 0, cands, out); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("N=%d: %d-candidate twophase source makes %v allocations", N, len(cands), allocs)
		if limit := float64(4*len(cands) + 16); allocs > limit {
			t.Errorf("N=%d: %d-candidate twophase source makes %v allocations, want <= %v", N, len(cands), allocs, limit)
		}
	}
}
