package ugraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// UpdateOp selects the kind of one arc mutation.
type UpdateOp uint8

// The three arc mutations of the dynamic update plane.
const (
	// OpInsert adds a potential arc that does not exist yet.
	OpInsert UpdateOp = iota
	// OpDelete removes an existing potential arc.
	OpDelete
	// OpReweight changes the existence probability of an existing arc.
	OpReweight
)

// String implements fmt.Stringer.
func (op UpdateOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpReweight:
		return "reweight"
	default:
		return fmt.Sprintf("UpdateOp(%d)", uint8(op))
	}
}

// ParseUpdateOp maps a user-facing op name ("insert", "delete",
// "reweight", plus the short forms "ins"/"del"/"rw") to its UpdateOp —
// the one parser shared by the CLI and the serving plane.
func ParseUpdateOp(s string) (UpdateOp, error) {
	switch s {
	case "insert", "ins":
		return OpInsert, nil
	case "delete", "del":
		return OpDelete, nil
	case "reweight", "rw":
		return OpReweight, nil
	default:
		return 0, fmt.Errorf("ugraph: unknown update op %q (want insert, delete or reweight)", s)
	}
}

// ArcUpdate is one staged arc mutation. P is the new existence
// probability for OpInsert and OpReweight and is ignored for OpDelete.
type ArcUpdate struct {
	Op   UpdateOp
	U, V int
	P    float64
}

// arcState is the net effect of all staged updates on one arc: the arc
// either exists with probability p or does not exist.
type arcState struct {
	exists bool
	p      float64
}

// Delta is a mutable overlay of staged arc updates over an immutable
// base Graph. Updates are validated at Stage time against the overlay
// view (base plus earlier staged updates), so an insert of an arc that
// a staged delete just removed is legal, while inserting an arc twice
// is not. Compact folds the overlay into a fresh CSR Graph.
//
// A Delta is the unit of incremental mutation in the dynamic update
// plane: the engine stages a batch, compacts it, and uses the touched
// arc heads to invalidate only the derived state the batch can actually
// have changed. A Delta is single-goroutine state; the graphs it reads
// and produces are immutable and freely shareable.
type Delta struct {
	base   *Graph
	staged map[[2]int32]arcState
	// arcs is the overlay's arc count minus the base's. Stage keeps it
	// as it validates each update, so NumArcs and Compact need no pass
	// over the staged arcs to know it.
	arcs int
}

// NewDelta returns an empty overlay on base.
func NewDelta(base *Graph) *Delta {
	return &Delta{base: base, staged: make(map[[2]int32]arcState)}
}

// state returns the overlay view of arc (u, v).
func (d *Delta) state(u, v int32) arcState {
	if st, ok := d.staged[[2]int32{u, v}]; ok {
		return st
	}
	p := d.base.Prob(int(u), int(v))
	return arcState{exists: p > 0, p: p}
}

// Stage validates one update against the overlay and records it.
// Inserting an existing arc, or deleting/reweighting a missing one, is
// an error: strict ops catch callers whose picture of the graph has
// drifted, which is exactly the bug class live mutation breeds.
func (d *Delta) Stage(up ArcUpdate) error {
	n := d.base.NumVertices()
	if up.U < 0 || up.U >= n || up.V < 0 || up.V >= n {
		return fmt.Errorf("ugraph: %s (%d,%d) out of range [0,%d)", up.Op, up.U, up.V, n)
	}
	cur := d.state(int32(up.U), int32(up.V))
	key := [2]int32{int32(up.U), int32(up.V)}
	switch up.Op {
	case OpInsert:
		if cur.exists {
			return fmt.Errorf("ugraph: insert (%d,%d): arc already exists (p=%g)", up.U, up.V, cur.p)
		}
		if !(up.P > 0 && up.P <= 1) {
			return fmt.Errorf("ugraph: insert (%d,%d): probability %v outside (0,1]", up.U, up.V, up.P)
		}
		d.arcs++
		d.staged[key] = arcState{exists: true, p: up.P}
	case OpDelete:
		if !cur.exists {
			return fmt.Errorf("ugraph: delete (%d,%d): no such arc", up.U, up.V)
		}
		d.arcs--
		d.staged[key] = arcState{exists: false}
	case OpReweight:
		if !cur.exists {
			return fmt.Errorf("ugraph: reweight (%d,%d): no such arc", up.U, up.V)
		}
		if !(up.P > 0 && up.P <= 1) {
			return fmt.Errorf("ugraph: reweight (%d,%d): probability %v outside (0,1]", up.U, up.V, up.P)
		}
		d.staged[key] = arcState{exists: true, p: up.P}
	default:
		return fmt.Errorf("ugraph: unknown update op %d", up.Op)
	}
	return nil
}

// StageAll stages every update, stopping at the first invalid one.
func (d *Delta) StageAll(ups []ArcUpdate) error {
	for _, up := range ups {
		if err := d.Stage(up); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of distinct arcs with a staged state.
func (d *Delta) Len() int { return len(d.staged) }

// NetChanges returns the number of distinct arcs whose staged state
// differs from the base graph — staged sequences that net out (an
// insert undone by a delete, a reweight back to the original bits) are
// not counted. This is the honest "arcs changed" figure for metrics.
func (d *Delta) NetChanges() int {
	n := 0
	for key, st := range d.staged {
		if d.netChanged(key, st) {
			n++
		}
	}
	return n
}

// netChanged reports whether arc key's staged state st differs from the
// base graph: a net insert, a net delete, or a reweight whose bits
// differ.
func (d *Delta) netChanged(key [2]int32, st arcState) bool {
	basep := d.base.Prob(int(key[0]), int(key[1]))
	switch {
	case st.exists && basep == 0:
		return true // net insert
	case !st.exists && basep > 0:
		return true // net delete
	}
	return st.exists && basep > 0 && math.Float64bits(st.p) != math.Float64bits(basep) // net reweight
}

// NetChangedHeads returns the sorted distinct heads (target vertices)
// of the arcs NetChanges counts — the staged arcs whose final state
// really differs from the base graph. Unlike TouchedHeads, a staged
// sequence that nets out (insert undone by delete, reweight back to
// the original bits) contributes nothing: these are the BFS seeds for
// consumers that must not react to no-op batches, such as the
// continuous-query plane's subscription wake-up.
func (d *Delta) NetChangedHeads() []int32 {
	seen := make(map[int32]bool, len(d.staged))
	var heads []int32
	for key, st := range d.staged {
		if d.netChanged(key, st) && !seen[key[1]] {
			seen[key[1]] = true
			heads = append(heads, key[1])
		}
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	return heads
}

// Base returns the graph the overlay is staged over.
func (d *Delta) Base() *Graph { return d.base }

// Prob returns the overlay view of arc (u, v)'s existence probability
// (0 when absent), i.e. what Compact().Prob(u, v) will return.
func (d *Delta) Prob(u, v int) float64 {
	if u < 0 || u >= d.base.NumVertices() || v < 0 || v >= d.base.NumVertices() {
		return 0
	}
	st := d.state(int32(u), int32(v))
	if !st.exists {
		return 0
	}
	return st.p
}

// NumArcs returns the overlay view of the arc count.
func (d *Delta) NumArcs() int { return d.base.NumArcs() + d.arcs }

// OutArcs returns the overlay view of u's out-neighbours and their
// probabilities, sorted by target. The result is read-only: for a
// vertex with no staged changes it aliases the base graph's storage
// (the common case on a sparse overlay — no copy), otherwise the
// slices are freshly allocated.
func (d *Delta) OutArcs(u int) (dst []int32, probs []float64) {
	touched := false
	for key := range d.staged {
		if key[0] == int32(u) {
			touched = true
			break
		}
	}
	if !touched {
		return d.base.Out(u), d.base.OutProbs(u)
	}
	dst = append(dst, d.base.Out(u)...)
	probs = append(probs, d.base.OutProbs(u)...)
	for key, st := range d.staged {
		if key[0] != int32(u) {
			continue
		}
		i := sort.Search(len(dst), func(i int) bool { return dst[i] >= key[1] })
		switch {
		case i < len(dst) && dst[i] == key[1]:
			if st.exists {
				probs[i] = st.p
			} else {
				dst = append(dst[:i], dst[i+1:]...)
				probs = append(probs[:i], probs[i+1:]...)
			}
		case st.exists:
			dst = append(dst, 0)
			probs = append(probs, 0)
			copy(dst[i+1:], dst[i:])
			copy(probs[i+1:], probs[i:])
			dst[i] = key[1]
			probs[i] = st.p
		}
	}
	return dst, probs
}

// TouchedHeads returns the sorted distinct heads (target vertices) of
// every staged arc. These are the vertices whose in-arc set — and
// therefore whose out-row on the reversed graph, where the SimRank
// walks run — may have changed; they are the BFS seeds of the engine's
// targeted invalidation.
func (d *Delta) TouchedHeads() []int32 {
	seen := make(map[int32]bool, len(d.staged))
	var heads []int32
	for key := range d.staged {
		if !seen[key[1]] {
			seen[key[1]] = true
			heads = append(heads, key[1])
		}
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	return heads
}

// Reversed returns the overlay's mirror over revBase, the reversed base
// graph: every staged state of arc (u, v) becomes the staged state of
// (v, u). The mirror needs no re-validation — arc (u, v) exists in a
// graph iff (v, u) exists in its reverse.
func (d *Delta) Reversed(revBase *Graph) *Delta {
	rd := &Delta{base: revBase, staged: make(map[[2]int32]arcState, len(d.staged)), arcs: d.arcs}
	for key, st := range d.staged {
		rd.staged[[2]int32{key[1], key[0]}] = st
	}
	return rd
}

// Compact folds the overlay into a fresh immutable CSR Graph. The
// staged patches are sorted once by (tail, head), so every patched row
// is one contiguous run of them: each stretch of untouched rows between
// two patched ones is a single copy of its arcs plus a constant shift
// of its offsets, and each patched row merges its old sorted row with
// its patches. The result is byte-identical to rebuilding the mutated
// graph from scratch with a Builder. Cost: bulk copies of the CSR
// arrays, plus a sort of the staged arcs and a merge of each patched
// row.
func (d *Delta) Compact() *Graph {
	ps := make([]patch, 0, len(d.staged))
	for key, st := range d.staged {
		ps = append(ps, patch{u: key[0], v: key[1], st: st})
	}
	slices.SortFunc(ps, func(a, b patch) int {
		if a.u != b.u {
			return cmp.Compare(a.u, b.u)
		}
		return cmp.Compare(a.v, b.v)
	})
	b, m := d.base, d.NumArcs()
	g := &Graph{n: b.n, outOff: make([]int32, b.n+1), outDst: make([]int32, m), outP: make([]float64, m)}
	next := 0 // first row not written yet; g.outOff[next] is set
	for i := 0; i < len(ps); {
		u := int(ps[i].u)
		j := i + 1
		for j < len(ps) && ps[j].u == ps[i].u {
			j++
		}
		g.copyRows(b, next, u)
		g.mergeRow(b, u, ps[i:j])
		next, i = u+1, j
	}
	g.copyRows(b, next, b.n)
	return g
}

// patch is one staged arc state, keyed by its tail u and head v.
type patch struct {
	u, v int32
	st   arcState
}

// copyRows fills rows lo..hi−1 of g from the same rows of b, which no
// patch touches: one copy of their arcs and their offsets shifted by
// the constant g.outOff[lo] − b.outOff[lo].
func (g *Graph) copyRows(b *Graph, lo, hi int) {
	if lo >= hi {
		return
	}
	w, r0, r1 := g.outOff[lo], b.outOff[lo], b.outOff[hi]
	copy(g.outDst[w:], b.outDst[r0:r1])
	copy(g.outP[w:], b.outP[r0:r1])
	dst, src := g.outOff[lo+1:hi+1], b.outOff[lo+1:hi+1]
	if shift := w - r0; shift == 0 {
		copy(dst, src)
	} else {
		for x, off := range src {
			dst[x] = off + shift
		}
	}
}

// mergeRow fills row u of g by merging b's sorted row u with ps, the
// row's staged patches sorted by head, and sets g.outOff[u+1].
func (g *Graph) mergeRow(b *Graph, u int, ps []patch) {
	oldDst, oldP := b.Out(u), b.OutProbs(u)
	w := g.outOff[u]
	i, j := 0, 0
	for i < len(oldDst) || j < len(ps) {
		switch {
		case j == len(ps) || (i < len(oldDst) && oldDst[i] < ps[j].v):
			g.outDst[w], g.outP[w] = oldDst[i], oldP[i]
			w++
			i++
		case i == len(oldDst) || ps[j].v < oldDst[i]:
			// Arc absent from the old row: a staged insert lands
			// here; a net-absent state (insert later undone by a
			// staged delete) is a no-op.
			if ps[j].st.exists {
				g.outDst[w], g.outP[w] = ps[j].v, ps[j].st.p
				w++
			}
			j++
		default: // same target: replace or drop
			if ps[j].st.exists {
				g.outDst[w], g.outP[w] = oldDst[i], ps[j].st.p
				w++
			}
			i++
			j++
		}
	}
	g.outOff[u+1] = w
}

// Apply is the one-shot form: stage every update on g and compact.
func (g *Graph) Apply(ups []ArcUpdate) (*Graph, error) {
	d := NewDelta(g)
	if err := d.StageAll(ups); err != nil {
		return nil, err
	}
	return d.Compact(), nil
}

// BoundedDistances runs a multi-source BFS from starts following the
// out-arcs of every graph in gs (their union adjacency), up to maxDepth
// steps. It returns dist with dist[v] = the hop count of the shortest
// such path (0 for a start vertex) or -1 when v is not reachable within
// maxDepth. Passing both the pre- and post-mutation graphs makes the
// reach set conservative across the mutation: a path that existed only
// before, or only after, still counts.
//
// When starts include the head of every arc the mutation deleted, as
// the update plane's seeds do, the post-mutation graph alone gives the
// same distances: a deleted arc ends at a start, and a shortest path
// from the starts never enters a start, so no old-only arc lies on one.
// The update plane passes the new graph alone; the variadic form stays
// for callers that measure or check the two-graph run.
//
// This is the invalidation frontier of the dynamic update plane: a
// source vertex's exact transition rows on the reversed graph change at
// level k only if the source reaches a touched arc head within k−1
// forward steps, so rows cached to depth D survive a mutation whenever
// dist[src] exceeds D−1.
func BoundedDistances(starts []int32, maxDepth int, gs ...*Graph) []int32 {
	if len(gs) == 0 {
		panic("ugraph: BoundedDistances needs at least one graph")
	}
	n := gs[0].NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	// One FIFO queue for the whole search, preallocated to hold every
	// vertex plus one slot: level k is queue[lo:hi] while level k+1 is
	// written behind it. The scan is branch-free — every out-neighbour
	// is written to the queue's next slot and sets its distance, and
	// both only take effect for an unvisited one — because whether a
	// neighbour was visited is unpredictable mid-search. On
	// BenchmarkUpdateBatchWarm's wake-up BFS this takes about a quarter
	// off an if-unvisited branch on the same queue.
	queue := make([]int32, n+1)
	qn := 0
	for _, s := range starts {
		if s < 0 || int(s) >= n {
			panic(fmt.Sprintf("ugraph: start %d out of range [0,%d)", s, n))
		}
		if dist[s] == -1 {
			dist[s] = 0
			queue[qn] = s
			qn++
		}
	}
	for depth, lo := int32(1), 0; int(depth) <= maxDepth && lo < qn; depth++ {
		hi := qn
		for _, v := range queue[lo:hi] {
			for _, g := range gs {
				for _, w := range g.outDst[g.outOff[v]:g.outOff[v+1]] {
					d := dist[w]
					fresh := uint32(d) >> 31 // 1 iff d == -1
					dist[w] = d + int32(fresh)*(depth+1)
					queue[qn] = w
					qn += int(fresh)
				}
			}
		}
		lo = hi
	}
	return dist
}
