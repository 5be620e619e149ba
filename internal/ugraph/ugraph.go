// Package ugraph implements uncertain graphs under the possible-world
// model (Sec. II of the paper): directed graphs whose arcs carry mutually
// independent existence probabilities. An uncertain graph G encodes the
// distribution Pr(G ⇒ G) = Π_{e∈G} P(e) · Π_{e∉G} (1 − P(e)) over its
// possible worlds G (Eq. 4).
//
// The package provides CSR storage, possible-world sampling, exhaustive
// world enumeration (the ground-truth oracle for the exact algorithms),
// and the lazy per-walk world instantiation used by the paper's Sampling
// algorithm (Fig. 4).
package ugraph

import (
	"fmt"
	"sort"

	"usimrank/internal/graph"
	"usimrank/internal/rng"
)

// Graph is an immutable uncertain directed graph over vertices 0..N-1.
// Arc i is identified by its position in the CSR out-arc array; arc IDs
// are stable and are the index space for the Speedup filter vectors.
type Graph struct {
	n      int
	outOff []int32   // len n+1
	outDst []int32   // len m, sorted within each row
	outP   []float64 // len m, parallel to outDst
}

// Builder accumulates probabilistic arcs and produces an immutable Graph.
type Builder struct {
	n    int
	arcs []arc
}

type arc struct {
	u, v int32
	p    float64
}

// NewBuilder returns a builder for an uncertain graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("ugraph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddArc records arc (u, v) with existence probability p ∈ (0, 1].
// It panics on out-of-range endpoints or probabilities.
func (b *Builder) AddArc(u, v int, p float64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("ugraph: arc (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if !(p > 0 && p <= 1) {
		panic(fmt.Sprintf("ugraph: probability %v outside (0,1]", p))
	}
	b.arcs = append(b.arcs, arc{int32(u), int32(v), p})
}

// AddEdge records both directions of an undirected edge with the same
// probability, the encoding used for PPI and co-authorship networks.
// Note the two directions are independent arcs under the model; this
// matches how the paper treats its undirected datasets.
func (b *Builder) AddEdge(u, v int, p float64) {
	b.AddArc(u, v, p)
	if u != v {
		b.AddArc(v, u, p)
	}
}

// NumArcs returns the number of arcs recorded so far.
func (b *Builder) NumArcs() int { return len(b.arcs) }

// Build finalises the uncertain graph. It returns an error if a duplicate
// arc was recorded.
func (b *Builder) Build() (*Graph, error) {
	sort.Slice(b.arcs, func(i, j int) bool {
		if b.arcs[i].u != b.arcs[j].u {
			return b.arcs[i].u < b.arcs[j].u
		}
		return b.arcs[i].v < b.arcs[j].v
	})
	for i := 1; i < len(b.arcs); i++ {
		if b.arcs[i].u == b.arcs[i-1].u && b.arcs[i].v == b.arcs[i-1].v {
			return nil, fmt.Errorf("ugraph: duplicate arc (%d,%d)", b.arcs[i].u, b.arcs[i].v)
		}
	}
	g := &Graph{
		n:      b.n,
		outOff: make([]int32, b.n+1),
		outDst: make([]int32, len(b.arcs)),
		outP:   make([]float64, len(b.arcs)),
	}
	for _, a := range b.arcs {
		g.outOff[a.u+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	fill := make([]int32, b.n)
	for _, a := range b.arcs {
		pos := g.outOff[a.u] + fill[a.u]
		g.outDst[pos] = a.v
		g.outP[pos] = a.p
		fill[a.u]++
	}
	return g, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumArcs returns the number of arcs.
func (g *Graph) NumArcs() int { return len(g.outDst) }

// Out returns the sorted out-neighbours of v; the slice aliases internal
// storage and must not be modified.
func (g *Graph) Out(v int) []int32 { return g.outDst[g.outOff[v]:g.outOff[v+1]] }

// OutProbs returns the probabilities parallel to Out(v).
func (g *Graph) OutProbs(v int) []float64 { return g.outP[g.outOff[v]:g.outOff[v+1]] }

// OutDegree returns the number of potential out-arcs of v.
func (g *Graph) OutDegree(v int) int { return int(g.outOff[v+1] - g.outOff[v]) }

// SameDegrees reports whether every vertex in [lo, hi) has the same
// out-degree in g and h, two graphs over the same vertices: one scan of
// the range's offsets.
func (g *Graph) SameDegrees(h *Graph, lo, hi int) bool {
	a, b := g.outOff[lo:hi+1], h.outOff[lo:hi+1]
	shift := b[0] - a[0]
	for i, off := range a {
		if b[i]-off != shift {
			return false
		}
	}
	return true
}

// ArcRange returns the half-open range [lo, hi) of arc IDs leaving v.
func (g *Graph) ArcRange(v int) (lo, hi int32) { return g.outOff[v], g.outOff[v+1] }

// ArcEndpoints returns (u, v, p) of the arc with the given ID.
func (g *Graph) ArcEndpoints(id int32) (u, v int32, p float64) {
	// Binary search for the row owning position id.
	lo, hi := 0, g.n
	for lo < hi {
		mid := (lo + hi) / 2
		if g.outOff[mid+1] <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo), g.outDst[id], g.outP[id]
}

// Prob returns the existence probability of arc (u, v), or 0 if (u, v) is
// not a potential arc.
func (g *Graph) Prob(u, v int) float64 {
	row := g.Out(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	if i < len(row) && row[i] == int32(v) {
		return g.OutProbs(u)[i]
	}
	return 0
}

// HasArc reports whether (u, v) is a potential arc.
func (g *Graph) HasArc(u, v int) bool { return g.Prob(u, v) > 0 }

// Reverse returns the uncertain graph with every arc flipped, preserving
// probabilities. SimRank propagates similarity along in-arcs, so the core
// algorithms run the walk machinery on the reversed graph.
func (g *Graph) Reverse() *Graph {
	b := NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		probs := g.OutProbs(u)
		for i, v := range g.Out(u) {
			b.AddArc(int(v), u, probs[i])
		}
	}
	return b.MustBuild()
}

// Skeleton returns the deterministic graph with the same potential arcs,
// i.e. the graph "obtained by removing uncertainty" used by the paper's
// SimRank-II and Jaccard-II baselines.
func (g *Graph) Skeleton() *graph.Graph {
	b := graph.NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(u) {
			b.AddArc(u, int(v))
		}
	}
	return b.MustBuild()
}

// Certain returns an uncertain graph with the same arcs as d, all with
// probability 1 (the embedding of Theorem 3).
func Certain(d *graph.Graph) *Graph {
	b := NewBuilder(d.NumVertices())
	for u := 0; u < d.NumVertices(); u++ {
		for _, v := range d.Out(u) {
			b.AddArc(u, int(v), 1)
		}
	}
	return b.MustBuild()
}

// AverageOutDegree returns |E| / |V| over potential arcs.
func (g *Graph) AverageOutDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(g.n)
}

// MeanProbability returns the average arc existence probability
// (0 on an arcless graph).
func (g *Graph) MeanProbability() float64 {
	if len(g.outP) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range g.outP {
		s += p
	}
	return s / float64(len(g.outP))
}

// SampleWorld draws a possible world according to Eq. 4 using r.
func (g *Graph) SampleWorld(r *rng.RNG) *graph.Graph {
	b := graph.NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		probs := g.OutProbs(u)
		for i, v := range g.Out(u) {
			if r.Bool(probs[i]) {
				b.AddArc(u, int(v))
			}
		}
	}
	return b.MustBuild()
}

// MaxEnumerableArcs bounds exhaustive world enumeration: 2^22 ≈ 4.2M
// worlds is the largest oracle computation the test suite performs.
const MaxEnumerableArcs = 22

// World is a possible world addressed by an arc-subset mask during
// exhaustive enumeration. Arc i exists iff bit i of the mask is set.
type World struct {
	g    *Graph
	mask uint64
}

// Mask returns the arc-subset mask of the world.
func (w World) Mask() uint64 { return w.mask }

// ArcExists reports whether the arc with the given ID exists in the world.
func (w World) ArcExists(id int32) bool { return w.mask&(1<<uint(id)) != 0 }

// Out appends the existing out-neighbours of v in this world to buf and
// returns it. Passing a reused buf avoids allocation in tight loops.
func (w World) Out(v int, buf []int32) []int32 {
	lo, hi := w.g.ArcRange(v)
	for id := lo; id < hi; id++ {
		if w.ArcExists(id) {
			buf = append(buf, w.g.outDst[id])
		}
	}
	return buf
}

// OutDegree returns the number of existing out-arcs of v in this world.
func (w World) OutDegree(v int) int {
	lo, hi := w.g.ArcRange(v)
	d := 0
	for id := lo; id < hi; id++ {
		if w.ArcExists(id) {
			d++
		}
	}
	return d
}

// Materialize builds the deterministic graph of this world.
func (w World) Materialize() *graph.Graph {
	b := graph.NewBuilder(w.g.n)
	for u := 0; u < w.g.n; u++ {
		lo, hi := w.g.ArcRange(u)
		for id := lo; id < hi; id++ {
			if w.ArcExists(id) {
				b.AddArc(u, int(w.g.outDst[id]))
			}
		}
	}
	return b.MustBuild()
}

// EnumerateWorlds invokes fn for every possible world of g together with
// its probability Pr(G ⇒ G). It returns an error if the graph has more
// than MaxEnumerableArcs arcs. The probabilities passed to fn sum to 1.
func (g *Graph) EnumerateWorlds(fn func(w World, pr float64)) error {
	m := g.NumArcs()
	if m > MaxEnumerableArcs {
		return fmt.Errorf("ugraph: %d arcs exceed enumeration limit %d", m, MaxEnumerableArcs)
	}
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		pr := 1.0
		for id := 0; id < m; id++ {
			if mask&(1<<uint(id)) != 0 {
				pr *= g.outP[id]
			} else {
				pr *= 1 - g.outP[id]
			}
		}
		fn(World{g: g, mask: mask}, pr)
	}
	return nil
}

// LazyWorld instantiates one possible world on demand, one vertex
// neighbourhood at a time — the sampling discipline of Fig. 4: the first
// time a walk visits a vertex, every arc leaving it is flipped once and
// the outcome is remembered; later visits reuse the instantiation. One
// LazyWorld corresponds to one sampled walk's world.
type LazyWorld struct {
	g       *Graph
	r       *rng.RNG
	out     map[int32][]int32
	scratch []int32
}

// NewLazyWorld returns a fresh lazy world over g driven by r.
func NewLazyWorld(g *Graph, r *rng.RNG) *LazyWorld {
	return &LazyWorld{g: g, r: r, out: make(map[int32][]int32)}
}

// Out returns the instantiated out-neighbours of v, flipping v's arcs on
// first access. The returned slice must not be modified.
func (w *LazyWorld) Out(v int32) []int32 {
	if nbrs, ok := w.out[v]; ok {
		return nbrs
	}
	lo, hi := w.g.ArcRange(int(v))
	w.scratch = w.scratch[:0]
	for id := lo; id < hi; id++ {
		if w.r.Bool(w.g.outP[id]) {
			w.scratch = append(w.scratch, w.g.outDst[id])
		}
	}
	nbrs := make([]int32, len(w.scratch))
	copy(nbrs, w.scratch)
	w.out[v] = nbrs
	return nbrs
}

// Visited reports whether v's neighbourhood has been instantiated.
func (w *LazyWorld) Visited(v int32) bool {
	_, ok := w.out[v]
	return ok
}

// Reset discards all instantiations so the world can be reused for the
// next sampled walk without reallocating the map.
func (w *LazyWorld) Reset() {
	for k := range w.out {
		delete(w.out, k)
	}
}
