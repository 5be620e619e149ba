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
// shares one filter pool between the u-side and the v-side; Estimate
// takes two pools so callers choose shared (paper-faithful) or
// independent (matches the Sampling algorithm's independence) pairing.
//
// Storage. A pool keeps one block of words per vertex (its out-arcs'
// filters, see Filters) in a table of fixed-size pages. A patched pool
// clones only the pages that hold a changed vertex, shares every other
// page with its predecessor, and re-samples a changed vertex only when
// a propagation first reaches it. Propagation runs on pooled
// dense frontiers (Tables, Scratch): each level is a sorted vertex list
// plus one word slab, so a warmed propagation and the estimate's
// merge-join allocate nothing. OR and AND commute and the popcount sums
// are integers, so neither the storage nor the visiting order can change
// an estimate.
package speedup

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"usimrank/internal/bitvec"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// Filters holds the N-bit filter vectors of one sampling pool, stored per
// vertex: vertex w's block is OutDegree(w)·⌈N/64⌉ words, the filter of
// its j-th out-arc at words [j·⌈N/64⌉, (j+1)·⌈N/64⌉). A full build carves
// every block from one slab. The block pointers live in pages of
// pageSize vertices. A patched pool clones the pages that hold a
// changed row, leaving the changed rows invalid, and shares every other
// page with its predecessor; the first propagation that reaches an
// invalid vertex re-samples it from its retained seed, bit-identical to
// a fresh build, and publishes the block with a compare-and-swap, so
// racing builders agree on one block. A compare-and-swap into a shared
// page publishes the block to every pool that shares the page, which is
// sound because no vertex on a shared page changed its row between
// them. A Filters is safe for concurrent use.
type Filters struct {
	N     int
	words int // ⌈N/64⌉, the length of one filter
	g     *ugraph.Graph
	// pages[w>>pageBits][w&pageMask] is w's filter block; nil while a
	// patch has left w invalid, and for rows without arcs, which no
	// propagation reads.
	pages []*page
	// seeds[w] is the RNG seed vertex w's filters are sampled from. It
	// is retained so an invalidated vertex re-samples bit-identically to
	// a from-scratch build of the mutated graph.
	seeds []uint64
	// rej[c] is rng.Uint64n's rejection threshold -c % c for a uniform
	// draw from [0, c), for every count c up to the build graph's
	// largest out-degree.
	rej []uint64
	// resampled counts the invalidated vertices re-sampled on first
	// use, shared by every pool patched from the same build.
	resampled *atomic.Uint64
}

// pageBits sets the block table's page size: a patch clones one page of
// pageSize block pointers per page that holds a touched vertex.
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one fixed-size slice of a pool's block table.
type page [pageSize]atomic.Pointer[[]uint64]

// newPages returns an empty block table for nv vertices, its pages
// carved from one slab.
func newPages(nv int) []*page {
	slab := make([]page, (nv+pageMask)>>pageBits)
	pages := make([]*page, len(slab))
	for i := range slab {
		pages[i] = &slab[i]
	}
	return pages
}

// slot returns the table entry that holds w's block.
func (f *Filters) slot(w int32) *atomic.Pointer[[]uint64] {
	return &f.pages[w>>pageBits][w&pageMask]
}

// certain is the flip threshold of a p = 1 arc, which draws nothing.
const certain = ^uint64(0)

// flipThreshold returns the integer form of rng.Bool(p) for p in
// (0, 1): draw>>11 < ⌈p·2^53⌉ ⇔ Float64() < p (draw>>11 is an integer
// below 2^53, and p·2^53 is exact). p = 1 maps to certain.
func flipThreshold(p float64) uint64 {
	if p >= 1 {
		return certain
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// rejections returns -c % c for every count c up to maxDeg.
func rejections(maxDeg int) []uint64 {
	rej := make([]uint64, maxDeg+1)
	for c := 1; c <= maxDeg; c++ {
		rej[c] = -uint64(c) % uint64(c)
	}
	return rej
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
// its own block, so the output depends solely on r's state — it is
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
	maxDeg := 0
	for w := 0; w < nv; w++ {
		maxDeg = max(maxDeg, g.OutDegree(w))
	}
	f := &Filters{
		N: N, words: (N + 63) / 64, g: g,
		pages:     newPages(nv),
		seeds:     seeds,
		rej:       rejections(maxDeg),
		resampled: new(atomic.Uint64),
	}
	W := f.words
	slab := make([]uint64, g.NumArcs()*W)
	rows := make([][]uint64, nv)
	thr := make([]uint64, g.NumArcs()) // per-arc scratch of sample
	pool.For(nv, func(w int) {
		lo, hi := g.ArcRange(w)
		if lo == hi {
			return
		}
		rows[w] = slab[int(lo)*W : int(hi)*W : int(hi)*W]
		f.sample(w, thr[lo:hi], rows[w])
		f.slot(int32(w)).Store(&rows[w])
	})
	return f
}

// sample fills b, vertex w's zeroed block, from w's seed: for every
// process, each out-arc is instantiated with its probability and one
// instantiated arc keeps the process's bit, chosen uniformly by
// reservoir sampling. thr, one entry per out-arc, is scratch for the
// arcs' flip thresholds. It consumes w's RNG stream exactly as rng.Bool
// and rng.Intn do: a p = 1 arc draws nothing, any other arc one draw,
// and the c-th instantiated arc (c ≥ 2) runs rng.Uint64n's rejection
// loop, keeping the arc when the accepted draw is divisible by c. The
// result depends only on (seed, w's arc row), never on scheduling or on
// other vertices.
func (f *Filters) sample(w int, thr, b []uint64) {
	for j, p := range f.g.OutProbs(w) {
		thr[j] = flipThreshold(p)
	}
	rej := f.rej
	if len(rej) <= len(thr) { // a row an update grew past the build's largest
		rej = rejections(len(thr))
	}
	rej = rej[:len(thr)+1]
	var r rng.RNG
	r.Reseed(f.seeds[w])
	W := f.words
	for i := 0; i < f.N; i++ {
		pick, count := -1, 0
		for j, t := range thr {
			if t != certain && r.Uint64()>>11 >= t {
				continue
			}
			count++
			if count > 1 { // rng.Intn(count) == 0, inlined to keep r in registers
				v := r.Uint64()
				for v < rej[count] {
					v = r.Uint64()
				}
				if v%uint64(count) != 0 {
					continue
				}
			}
			pick = j
		}
		if pick >= 0 {
			b[pick*W+(i>>6)] |= 1 << (uint(i) & 63)
		}
	}
}

// block returns w's filter block, re-sampling it first if a patch left
// it invalid. w must have out-arcs.
func (f *Filters) block(w int32) []uint64 {
	slot := f.slot(w)
	if b := slot.Load(); b != nil {
		return *b
	}
	deg := f.g.OutDegree(int(w))
	b := make([]uint64, deg*f.words)
	f.sample(int(w), make([]uint64, deg), b)
	if slot.CompareAndSwap(nil, &b) {
		f.resampled.Add(1)
		return b
	}
	return *slot.Load() // a racing builder published the same bits first
}

// Materialize re-samples every vertex a patch left invalid, fanned out
// over pool (nil runs inline), so no later propagation builds filters.
func (f *Filters) Materialize(pool *parallel.Pool) {
	var stale []int32
	for w := range f.g.NumVertices() {
		if f.slot(int32(w)).Load() == nil && f.g.OutDegree(w) > 0 {
			stale = append(stale, int32(w))
		}
	}
	pool.For(len(stale), func(i int) {
		f.block(stale[i])
	})
}

// Resampled returns how many invalidated vertices have been re-sampled
// on first use, across every pool patched from the same full build.
func (f *Filters) Resampled() uint64 { return f.resampled.Load() }

// PatchFilters derives the filter pool of a mutated graph from the pool
// of its predecessor. newG must have the same vertex count as old's
// graph; touched lists the vertices whose out-arc row differs between
// the two, in any order (extra vertices are allowed — invalidating an
// unchanged row costs a re-sample, never a wrong bit). It panics if an
// unlisted vertex's out-degree changed. The patch clones each page of
// old's block table that holds a touched vertex, invalidates the
// touched vertices there, and shares every other page, whose (immutable)
// blocks, or invalid entries, stay as they were. It samples nothing:
// the first propagation that reaches an invalidated vertex re-samples it
// from its retained seed (or Materialize does). Its cost is a copy of
// the page pointers, one page per touched page and a scan of the two
// graphs' out-degrees.
//
// The result is bit-identical to BuildFiltersPool on newG with the same
// root RNG: the per-vertex seed sequence depends only on the vertex
// count, and each vertex's filters depend only on (seed, arc row).
func PatchFilters(old *Filters, newG *ugraph.Graph, touched []int32) *Filters {
	nv := newG.NumVertices()
	if nv != old.g.NumVertices() {
		panic(fmt.Sprintf("speedup: patch across vertex counts %d -> %d", old.g.NumVertices(), nv))
	}
	ts := slices.Clone(touched)
	slices.Sort(ts)
	ts = slices.Compact(ts)
	lo := 0
	for _, w := range append(ts, int32(nv)) {
		if !old.g.SameDegrees(newG, lo, int(w)) {
			for x := lo; x < int(w); x++ {
				if od, nd := old.g.OutDegree(x), newG.OutDegree(x); od != nd {
					panic(fmt.Sprintf("speedup: vertex %d row changed (%d -> %d arcs) but not marked touched", x, od, nd))
				}
			}
		}
		lo = int(w) + 1
	}
	f := &Filters{
		N: old.N, words: old.words, g: newG,
		pages:     slices.Clone(old.pages),
		seeds:     old.seeds,
		rej:       old.rej,
		resampled: old.resampled,
	}
	for i, w := range ts {
		pi := w >> pageBits
		if i == 0 || ts[i-1]>>pageBits != pi { // the page's first touched vertex: clone it
			from, to := old.pages[pi], new(page)
			for j := range to {
				to[j].Store(from[j].Load())
			}
			f.pages[pi] = to
		}
		f.pages[pi][w&pageMask].Store(nil)
	}
	return f
}

// Arc returns a copy of the filter vector of the given arc, or nil if no
// process uses it. It re-samples the arc's tail first if a patch left it
// invalid.
func (f *Filters) Arc(id int32) *bitvec.Vector {
	w, _, _ := f.g.ArcEndpoints(id)
	lo, _ := f.g.ArcRange(int(w))
	j := int(id - lo)
	row := f.block(w)[j*f.words : (j+1)*f.words]
	if !bitvec.AnyWords(row) {
		return nil
	}
	return bitvec.FromWords(f.N, row)
}

// Tables holds the counting tables of one source vertex: level k lists
// the vertices w whose N-bit vector M_w[k] ("process i's walk is at w
// after k steps") has a set bit, ascending, with their vectors in one
// word slab in the same order. A Tables is reusable: PropagateInto
// overwrites it, growing its buffers to a high-water mark.
type Tables struct {
	Src   int32
	Steps int
	N     int
	words int
	verts [][]int32  // verts[k]: level k's vertices, ascending
	rows  [][]uint64 // rows[k]: their vectors, words apiece, in verts order
}

// Vertices returns the vertices level k reaches, ascending.
func (t *Tables) Vertices(k int) []int32 { return t.verts[k] }

// PopCount returns ‖M_v[k]‖₁, the number of processes at v after k
// steps (0 when level k does not reach v).
func (t *Tables) PopCount(k int, v int32) int {
	i, ok := slices.BinarySearch(t.verts[k], v)
	if !ok {
		return 0
	}
	return bitvec.PopCountWords(t.rows[k][i*t.words : (i+1)*t.words])
}

// Clone returns a copy of t in exactly sized storage: one vertex slab
// and one word slab shared by its levels. Callers that keep many tables
// at once propagate into pooled tables and keep clones, so the pooled
// buffers' growth headroom is not held per table.
func (t *Tables) Clone() *Tables {
	nv, nw := 0, 0
	for k := range t.verts {
		nv, nw = nv+len(t.verts[k]), nw+len(t.rows[k])
	}
	c := &Tables{Src: t.Src, Steps: t.Steps, N: t.N, words: t.words,
		verts: make([][]int32, len(t.verts)), rows: make([][]uint64, len(t.rows))}
	verts, rows := make([]int32, 0, nv), make([]uint64, 0, nw)
	for k := range t.verts {
		v0, r0 := len(verts), len(rows)
		verts, rows = append(verts, t.verts[k]...), append(rows, t.rows[k]...)
		c.verts[k], c.rows[k] = verts[v0:len(verts):len(verts)], rows[r0:len(rows):len(rows)]
	}
	return c
}

// Scratch is one worker's reusable propagation state: a stamp array
// over the graph's vertices that maps a vertex to its slot in the level
// being built, and the slots' rows in discovery order. A warmed Scratch
// and Tables make PropagateInto allocation-free. It is single-goroutine
// state.
type Scratch struct {
	stamp []uint32 // stamp[x] == epoch: x has a slot in the level being built
	slot  []int32  // x's slot, valid while stamp[x] == epoch
	epoch uint32
	keys  []uint64 // x<<32 | slot per slot, sorted to emit the level by vertex
	buf   []uint64 // slot rows, words apiece
}

// nextLevel starts a level: every stamp from earlier levels goes stale.
func (s *Scratch) nextLevel(nv int) uint32 {
	if len(s.stamp) < nv {
		s.stamp = make([]uint32, nv)
		s.slot = make([]int32, nv)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: clear the stamps once every 2^32 levels
		clear(s.stamp)
		s.epoch = 1
	}
	s.keys, s.buf = s.keys[:0], s.buf[:0]
	return s.epoch
}

// Propagate runs the BFS-sharing propagation of Fig. 5 from src for n
// steps using the filter pool f, into fresh tables.
func Propagate(f *Filters, src int, n int) *Tables {
	t := new(Tables)
	PropagateInto(t, new(Scratch), f, src, n)
	return t
}

// PropagateInto is Propagate into reusable tables t, with s as the
// frontier scratch. Level k+1 ORs M_w[k] ∧ F_(w,x) into x for every arc
// (w, x) leaving a level-k vertex whose product has a set bit, so every
// listed vertex has a non-zero vector, as in Fig. 5's U(k+1).
func PropagateInto(t *Tables, s *Scratch, f *Filters, src int, n int) {
	g := f.g
	if src < 0 || src >= g.NumVertices() {
		panic(fmt.Sprintf("speedup: source %d out of range [0,%d)", src, g.NumVertices()))
	}
	if n < 0 {
		panic(fmt.Sprintf("speedup: negative step count %d", n))
	}
	W := f.words
	t.Src, t.Steps, t.N, t.words = int32(src), n, f.N, W
	t.verts = resize(t.verts, n+1)
	t.rows = resize(t.rows, n+1)
	t.verts[0] = append(t.verts[0][:0], int32(src))
	start := extend(t.rows[0][:0], W)
	for i := range start {
		start[i] = ^uint64(0)
	}
	if rem := uint(f.N) & 63; rem != 0 {
		start[W-1] = 1<<rem - 1
	}
	t.rows[0] = start
	for k := 0; k < n; k++ {
		epoch := s.nextLevel(g.NumVertices())
		cur := t.rows[k]
		for idx, w := range t.verts[k] {
			lo, hi := g.ArcRange(int(w))
			if lo == hi {
				continue
			}
			mw := cur[idx*W : (idx+1)*W]
			blk := f.block(w)
			for j, x := range g.Out(int(w)) {
				fe := blk[j*W : (j+1)*W]
				if !bitvec.AndAnyWords(mw, fe) {
					continue
				}
				slot := int(s.slot[x])
				if s.stamp[x] != epoch {
					slot = len(s.keys)
					s.stamp[x], s.slot[x] = epoch, int32(slot)
					s.keys = append(s.keys, uint64(x)<<32|uint64(slot))
					s.buf = extend(s.buf, W)
				}
				bitvec.OrAndWords(s.buf[slot*W:(slot+1)*W], mw, fe)
			}
		}
		slices.Sort(s.keys)
		verts, rows := t.verts[k+1][:0], t.rows[k+1][:0]
		for _, key := range s.keys {
			slot := int(uint32(key))
			verts = append(verts, int32(key>>32))
			rows = append(rows, s.buf[slot*W:(slot+1)*W]...)
		}
		t.verts[k+1], t.rows[k+1] = verts, rows
	}
}

// extend returns xs grown by n zeroed words, reallocating only past
// its capacity.
func extend(xs []uint64, n int) []uint64 {
	l := len(xs)
	xs = slices.Grow(xs, n)[:l+n]
	clear(xs[l:])
	return xs
}

// resize returns xs with length n, keeping the inner buffers it has.
func resize[T any](xs [][]T, n int) [][]T {
	if cap(xs) < n {
		xs = append(xs[:cap(xs)], make([][]T, n-cap(xs))...)
	}
	return xs[:n]
}

// MeetingEstimates computes m̂(k) for k = 0..Steps per Eq. 16 from the
// counting tables of the two sources. The tables must have equal N and
// Steps.
func MeetingEstimates(a, b *Tables) []float64 {
	return MeetingEstimatesInto(make([]float64, a.Steps+1), a, b)
}

// MeetingEstimatesInto is MeetingEstimates into m, which must hold
// Steps+1 entries; it returns m. Each level is a merge-join of the two
// sorted vertex lists, summing the integer popcounts of the shared
// vertices' AND.
func MeetingEstimatesInto(m []float64, a, b *Tables) []float64 {
	if a.N != b.N || a.Steps != b.Steps {
		panic("speedup: mismatched tables")
	}
	W := a.words
	for k := 0; k <= a.Steps; k++ {
		va, vb := a.verts[k], b.verts[k]
		ra, rb := a.rows[k], b.rows[k]
		total := 0
		for i, j := 0, 0; i < len(va) && j < len(vb); {
			switch {
			case va[i] < vb[j]:
				i++
			case va[i] > vb[j]:
				j++
			default:
				total += bitvec.AndPopCountWords(ra[i*W:(i+1)*W], rb[j*W:(j+1)*W])
				i++
				j++
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
