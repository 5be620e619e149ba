package core

import (
	"fmt"
	"time"

	"usimrank/internal/matrix"
	"usimrank/internal/speedup"
	"usimrank/internal/ugraph"
)

// UpdateStats reports what one ApplyUpdates call did — most usefully,
// how much warm state survived. RowsEvicted / (RowsEvicted +
// RowsRetained) is the invalidation fraction the targeted scheme is
// designed to keep small.
type UpdateStats struct {
	// Applied is the number of distinct arcs with a net change relative
	// to the predecessor's graph; staged sequences that net out (insert
	// then delete) are not counted.
	Applied int
	// TouchedHeads is the number of distinct heads of the arcs Applied
	// counts — the seed set of the invalidation BFS. A head whose staged
	// arcs net out keeps a byte-identical reversed out-row, so it seeds
	// nothing.
	TouchedHeads int
	// RowsEvicted and RowsRetained partition the predecessor's row
	// cache: evicted entries were within their cached depth of a
	// net-changed head, retained entries are provably bit-identical on
	// the mutated graph and carry over warm.
	RowsEvicted  int
	RowsRetained int
	// FiltersPatched reports whether the predecessor had built its
	// SR-SP filter pools (and so the successor inherited patched pools
	// instead of rebuilding lazily from scratch).
	FiltersPatched bool
	// FilterVerticesRebuilt is the number of per-vertex filter blocks
	// the patch invalidated across the patched pools (0 when
	// FiltersPatched is false). The patch re-samples none of them: the
	// first propagation that reaches an invalidated vertex does, or
	// WarmFilters; KernelStats counts those re-samples.
	FilterVerticesRebuilt int
	// TouchedSources is the sorted set of source vertices whose
	// reverse-walk distribution can have changed: vertices that reach a
	// net-changed arc head within Steps−1 forward hops of the union of
	// the old and new graphs (the invalidation BFS, run to the full walk
	// horizon). The successor engine keeps the same slice
	// (Engine.TouchedSources); neither may be modified. The contract is
	// per-SIDE: a query answer is provably bit-identical across the
	// update iff every constituent source — each side of every pair the
	// shape evaluates — is outside this set. A pairwise score s(u,v)
	// needs u and v untouched; shapes that evaluate u against every
	// vertex (top-k of u, the unrestricted single-source vector) can
	// change whenever the set is non-empty, because a touched v-side
	// row moves that candidate's score even when u itself is
	// unaffected. Empty when the batch nets out to no real change — the
	// serving plane's subscription wake-up keys off this, so a no-op
	// batch must wake nobody.
	TouchedSources []int32
	// Generation is the successor engine's generation number.
	Generation uint64
	// Phases splits the call's wall time into its steps.
	Phases UpdatePhases
}

// UpdatePhases are the wall times of ApplyUpdates' steps, in order.
type UpdatePhases struct {
	// Compact is delta staging plus CSR compaction of the mutated graph
	// and its reverse: copies of the runs of untouched rows (of the
	// probabilities alone when no row gains or loses an arc) and a
	// merge of each patched row.
	Compact time.Duration
	// TouchBFS is the one BoundedDistances run, from the net-changed
	// heads to the full walk horizon, that yields TouchedSources and
	// decides row-cache eviction (zero for a batch that nets out).
	TouchBFS time.Duration
	// RowCarry is the carry-over of surviving row-cache entries and of
	// the walk memo's keys and kept sides.
	RowCarry time.Duration
	// Filters is the SR-SP filter invalidation: per built pool, a copy
	// of the block table's page pointers and a clone of each page that
	// holds a net-changed head.
	Filters time.Duration
}

// Generation returns the engine's graph generation: 1 for an engine
// built by NewEngine, and the predecessor's generation plus one for an
// engine derived by ApplyUpdates. Serving planes key caches and
// coalescing on it so results from different graph versions never mix.
func (e *Engine) Generation() uint64 { return e.gen }

// ApplyUpdates derives an engine for the mutated graph from the
// receiver, carrying over every piece of warm state the mutation
// provably cannot have changed. The receiver is not modified and stays
// fully usable — in-flight queries keep computing against the old
// graph, which is what lets a serving plane swap generations under
// live traffic with no torn state.
//
// The walk is Markov: its next step depends only on the reversed
// out-row of the vertex it is on, and that row changed only for a
// net-changed arc head (a head whose staged arcs net out keeps a
// byte-identical row). So one bounded BFS from those heads, out to the
// walk horizon Steps−1, answers "what did this batch reach" for every
// consumer: row-cache eviction, TouchedSources (the subscription
// wake-up) and the index patch, which reads the successor's
// TouchedSources. Compared to NewEngine on the mutated graph (plus a
// filter warm-up), the derived engine skips almost all of the rebuild:
//
//   - the mutated CSR and its reverse are compacted incrementally from
//     the update overlay (bulk copies of the untouched rows, no
//     re-sort);
//   - row-cache entries survive unless the BFS reaches their source
//     within the cached depth, and the survivors move to the
//     successor's cache in one pass;
//   - built SR-SP filter pools are patched per vertex: the net-changed
//     heads are invalidated on cloned pages of the block table, and
//     re-sampled only when an SR-SP propagation first reaches them (or
//     by WarmFilters), so an update re-samples no filter;
//   - the walk memo of the Sampling and SR-TS source kernel carries
//     over with the net-changed heads. The update checks no walk: the
//     successor's next source query reuses each kept chunk none of
//     whose walks left such a head, and re-draws the others
//     (walkmemo.go).
//
// Every query on the derived engine is bit-identical to the same query
// on a freshly built engine over the mutated graph with the same
// options: walk streams depend only on (seed, vertex, side), retained
// rows are prefix-stable, re-sampled filters reproduce the from-scratch
// build exactly, and a reused walk chunk is the one a fresh draw gives.
// The oracle test suite pins this. Kernel and row-cache counters carry
// over, so lifetime totals read from the newest generation never drop.
//
// An empty update batch, or one that nets out, is legal and yields a
// successor with all warm state retained (only the generation changes).
func (e *Engine) ApplyUpdates(updates []ugraph.ArcUpdate) (*Engine, *UpdateStats, error) {
	phase := time.Now()
	lap := func(dst *time.Duration) { // charges the time since the last lap to *dst
		now := time.Now()
		*dst += now.Sub(phase)
		phase = now
	}
	d := ugraph.NewDelta(e.g)
	if err := d.StageAll(updates); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	newG := d.Compact()
	newRev := d.Reversed(e.rev).Compact()
	heads := d.NetChangedHeads()
	stats := &UpdateStats{
		Applied:      d.NetChanges(),
		TouchedHeads: len(heads),
		Generation:   e.gen + 1,
	}
	lap(&stats.Phases.Compact)

	// The invalidation BFS reads the new graph alone, yet gives the
	// distances over the union of the old and new adjacency: every arc
	// the batch deletes ends at a net-changed head, and a shortest path
	// from the heads never enters a head, so no old arc can shorten a
	// distance.
	horizon := max(e.opt.Steps-1, 0)
	var dist []int32
	if len(heads) > 0 {
		dist = ugraph.BoundedDistances(heads, horizon, newG)
		for v, dv := range dist {
			if dv >= 0 {
				stats.TouchedSources = append(stats.TouchedSources, int32(v))
			}
		}
	}
	lap(&stats.Phases.TouchBFS)

	// Row-cache carry-over. A cached entry holds rows 0..D for its
	// source on the reversed graph; level k changes only if the source
	// reaches a net-changed head within k−1 steps of the original-
	// direction graph, so the entry is evicted iff dist(src) ≤ D−1. The
	// BFS stops at the walk horizon, so an entry cached deeper than
	// Steps is evicted on any real change; only MeetingExact, Series or
	// WarmRows called with K > Steps cache one, and no serving path does.
	newRows := e.rows.Carry(func(src int, rows []matrix.Vec) bool {
		depth := len(rows) - 2
		if dist != nil && (depth > horizon || (dist[src] >= 0 && int(dist[src]) <= depth)) {
			stats.RowsEvicted++
			return false
		}
		stats.RowsRetained++
		return true
	})
	memo := e.memo.carry(stats.Generation, heads)
	lap(&stats.Phases.RowCarry)

	// Filter-pool carry-over: patch only if the predecessor built them;
	// otherwise the successor builds lazily on first SR-SP query, same
	// as a fresh engine. The vertices whose reversed out-row changed are
	// exactly the net-changed heads: the rev out-row of y holds the
	// reversed (·, y) arcs.
	e.filterMu.Lock()
	poolU, poolV := e.poolU, e.poolV
	e.filterMu.Unlock()
	var newPoolU, newPoolV *speedup.Filters
	if poolU != nil {
		newPoolU = speedup.PatchFilters(poolU, newRev, heads)
		newPoolV = speedup.PatchFilters(poolV, newRev, heads)
		stats.FiltersPatched = true
		stats.FilterVerticesRebuilt = 2 * len(heads)
	}
	lap(&stats.Phases.Filters)

	return &Engine{
		g:    newG,
		rev:  newRev,
		opt:  e.opt,
		pool: e.pool, // shared: old + new engines stay inside one Parallelism bound while the old drains
		rows: newRows,
		// The v2 arc-sampling plan is a pure function of the mutated
		// graph, so the successor rebuilds it lazily on first SamplingV2
		// query; the scratch pool carries over — its buffers are sized by
		// the options, not the graph.
		v2pool:     e.v2pool,
		poolU:      newPoolU,
		poolV:      newPoolV,
		gen:        e.gen + 1,
		touched:    stats.TouchedSources,
		memo:       memo,
		kc:         e.kc,
		filterBase: e.filterBase,
	}, stats, nil
}

// TouchedSources returns the sorted sources whose walk distribution the
// update that made e can have changed: UpdateStats.TouchedSources of
// the ApplyUpdates call that returned e (or the engine e was cloned
// from), and nil for an engine NewEngine built. Callers must not modify
// it. Index patching recomputes exactly these rows.
func (e *Engine) TouchedSources() []int32 { return e.touched }
