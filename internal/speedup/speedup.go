// Package speedup implements the paper's speeding-up technique
// (Sec. VI-D, Fig. 5): the N independent sampling processes of the
// Sampling algorithm are executed simultaneously by encoding, for every
// arc e, an N-bit filter vector F_e whose i-th bit says "sampling process
// i, when at the arc's source, moves along e", and propagating N-bit
// counting tables M_w[k] level by level with bitwise AND/OR. The meeting
// probability estimate is then m̂(k) = ‖M_w[k] ∧ M'_w[k]‖₁ / N summed
// over vertices (Eq. 16).
//
// Fidelity note (also in the README's "Where this code departs from the
// paper"): filter vectors fix one out-choice per (vertex, process), so a
// walk that revisits a vertex repeats its earlier choice, whereas the
// Sampling algorithm re-rolls the uniform choice on every visit. The two coincide whenever walks cannot
// revisit a vertex within n steps (girth > n) and are statistically
// indistinguishable on the sparse graphs of the evaluation; the ablation
// benchmarks quantify the difference on loopy graphs. The paper also
// shares one filter pool between the u-side and the v-side; NewEstimator
// takes two pools so callers choose shared (paper-faithful) or
// independent (matches the Sampling algorithm's independence) pairing.
package speedup

import (
	"fmt"

	"usimrank/internal/bitvec"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// Filters holds the per-arc N-bit filter vectors of one sampling pool.
type Filters struct {
	N   int
	g   *ugraph.Graph
	arc []*bitvec.Vector // indexed by arc ID; nil when no bit is set
	// seeds[w] is the RNG seed vertex w's filters were built from. It is
	// retained so PatchFilters can rebuild a mutated vertex's filters
	// bit-identically to a from-scratch build of the mutated graph.
	seeds []uint64
}

// BuildFilters constructs filter vectors for all arcs of g offline: for
// every vertex w and process i, each arc leaving w is instantiated with
// its probability and one instantiated arc is selected uniformly at
// random (reservoir sampling keeps the selection single-pass). It is
// BuildFiltersPool with an inline (single-worker) pool.
func BuildFilters(g *ugraph.Graph, N int, r *rng.RNG) *Filters {
	return BuildFiltersPool(g, N, r, nil)
}

// BuildFiltersPool builds the same filters as BuildFilters, fanning the
// per-vertex work out over pool (nil runs inline). Every vertex draws a
// child seed from r in vertex order before the fan-out and fills only
// its own arc range, so the output depends solely on r's state — it is
// bit-identical for every pool size, including the inline one.
func BuildFiltersPool(g *ugraph.Graph, N int, r *rng.RNG, pool *parallel.Pool) *Filters {
	if N <= 0 {
		panic(fmt.Sprintf("speedup: bad N %d", N))
	}
	nv := g.NumVertices()
	seeds := make([]uint64, nv)
	for w := range seeds {
		seeds[w] = r.Uint64()
	}
	f := &Filters{N: N, g: g, arc: make([]*bitvec.Vector, g.NumArcs()), seeds: seeds}
	pool.For(nv, func(w int) {
		f.buildVertex(w)
	})
	return f
}

// buildVertex (re)builds the filter vectors of the arcs leaving w from
// w's retained seed. It writes only w's own arc range, so concurrent
// calls for distinct vertices are safe, and the result depends only on
// (seed, w's arc row) — never on scheduling or on other vertices.
func (f *Filters) buildVertex(w int) {
	g := f.g
	lo, hi := g.ArcRange(w)
	if lo == hi {
		return
	}
	rw := rng.New(f.seeds[w])
	probs := g.OutProbs(w)
	for i := 0; i < f.N; i++ {
		pick := int32(-1)
		count := 0
		for id := lo; id < hi; id++ {
			if rw.Bool(probs[id-lo]) {
				count++
				if count == 1 || rw.Intn(count) == 0 {
					pick = id
				}
			}
		}
		if pick >= 0 {
			if f.arc[pick] == nil {
				f.arc[pick] = bitvec.New(f.N)
			}
			f.arc[pick].Set(i)
		}
	}
}

// PatchFilters derives the filter pool of a mutated graph from the pool
// of its predecessor. newG must have the same vertex count as old's
// graph; touched lists the vertices whose out-arc row differs between
// the two (extra vertices are allowed — rebuilding an unchanged row is
// wasted work, never wrong). Untouched rows share their (immutable)
// filter vectors with the old pool under the new arc IDs; touched rows
// are rebuilt from their retained per-vertex seeds, fanned out over
// pool (nil runs inline).
//
// The result is bit-identical to BuildFiltersPool on newG with the same
// root RNG: the per-vertex seed sequence depends only on the vertex
// count, and each vertex's filters depend only on (seed, arc row).
func PatchFilters(old *Filters, newG *ugraph.Graph, touched []int32, pool *parallel.Pool) *Filters {
	if newG.NumVertices() != old.g.NumVertices() {
		panic(fmt.Sprintf("speedup: patch across vertex counts %d -> %d", old.g.NumVertices(), newG.NumVertices()))
	}
	f := &Filters{N: old.N, g: newG, arc: make([]*bitvec.Vector, newG.NumArcs()), seeds: old.seeds}
	isTouched := make(map[int32]bool, len(touched))
	for _, w := range touched {
		isTouched[w] = true
	}
	for w := 0; w < newG.NumVertices(); w++ {
		if isTouched[int32(w)] {
			continue
		}
		oldLo, oldHi := old.g.ArcRange(w)
		newLo, newHi := newG.ArcRange(w)
		if newHi-newLo != oldHi-oldLo {
			panic(fmt.Sprintf("speedup: vertex %d row changed (%d -> %d arcs) but not marked touched",
				w, oldHi-oldLo, newHi-newLo))
		}
		copy(f.arc[newLo:newHi], old.arc[oldLo:oldHi])
	}
	pool.For(len(touched), func(i int) {
		f.buildVertex(int(touched[i]))
	})
	return f
}

// Arc returns the filter vector of the given arc, or nil if no process
// uses it.
func (f *Filters) Arc(id int32) *bitvec.Vector { return f.arc[id] }

// Tables holds the counting tables of one source vertex: Level[k][w] is
// the N-bit vector M_w[k] whose i-th bit says "process i's walk is at w
// after k steps".
type Tables struct {
	Src    int32
	Steps  int
	N      int
	Levels []map[int32]*bitvec.Vector
}

// Propagate runs the BFS-sharing propagation of Fig. 5 from src for n
// steps using the filter pool f.
func Propagate(f *Filters, src int, n int) *Tables {
	g := f.g
	if src < 0 || src >= g.NumVertices() {
		panic(fmt.Sprintf("speedup: source %d out of range [0,%d)", src, g.NumVertices()))
	}
	if n < 0 {
		panic(fmt.Sprintf("speedup: negative step count %d", n))
	}
	t := &Tables{Src: int32(src), Steps: n, N: f.N, Levels: make([]map[int32]*bitvec.Vector, n+1)}
	start := bitvec.New(f.N)
	start.SetAll()
	t.Levels[0] = map[int32]*bitvec.Vector{int32(src): start}
	for k := 0; k < n; k++ {
		next := make(map[int32]*bitvec.Vector)
		for w, mw := range t.Levels[k] {
			lo, hi := g.ArcRange(int(w))
			for id := lo; id < hi; id++ {
				fe := f.arc[id]
				if fe == nil {
					continue
				}
				x := g.Out(int(w))[id-lo]
				mx := next[x]
				if mx == nil {
					mx = bitvec.New(f.N)
					next[x] = mx
				}
				mx.OrAnd(mw, fe)
			}
		}
		// Drop all-zero vectors so U(k+1) holds only reachable vertices.
		for x, mx := range next {
			if !mx.Any() {
				delete(next, x)
			}
		}
		t.Levels[k+1] = next
	}
	return t
}

// MeetingEstimates computes m̂(k) for k = 0..Steps per Eq. 16 from the
// counting tables of the two sources. The tables must have equal N and
// Steps.
func MeetingEstimates(a, b *Tables) []float64 {
	if a.N != b.N || a.Steps != b.Steps {
		panic("speedup: mismatched tables")
	}
	m := make([]float64, a.Steps+1)
	for k := 0; k <= a.Steps; k++ {
		la, lb := a.Levels[k], b.Levels[k]
		// Iterate the smaller map.
		if len(lb) < len(la) {
			la, lb = lb, la
		}
		total := 0
		for w, va := range la {
			if vb, ok := lb[w]; ok {
				total += va.AndPopCount(vb)
			}
		}
		m[k] = float64(total) / float64(a.N)
	}
	return m
}

// Estimate runs the full pipeline for a pair of sources: propagate from u
// using fu and from v using fv, then combine. Pass the same pool twice
// for the paper's shared-pool behaviour, or two independently built pools
// for unbiased pairing.
func Estimate(fu, fv *Filters, u, v, n int) []float64 {
	if fu.g != fv.g {
		panic("speedup: filter pools built over different graphs")
	}
	return MeetingEstimates(Propagate(fu, u, n), Propagate(fv, v, n))
}
