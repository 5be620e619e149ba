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
	// TouchedHeads is the number of distinct arc heads among the
	// updates — the seed set of the invalidation BFS.
	TouchedHeads int
	// HorizonDepth is the BFS depth the invalidation ran to: the
	// deepest cached row prefix minus one, so every cached entry is
	// either provably unaffected or evicted.
	HorizonDepth int
	// RowsEvicted and RowsRetained partition the predecessor's row
	// cache: evicted entries were within the walk horizon of a touched
	// arc, retained entries are provably bit-identical on the mutated
	// graph and carry over warm.
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
	// the old and new graphs (the invalidation BFS run to the full walk
	// horizon, not just the cached-row horizon). The contract is
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
	// EvictBFS is the BoundedDistances run that decides row-cache
	// eviction (zero when no head or no cached row exists).
	EvictBFS time.Duration
	// TouchBFS is the BoundedDistances run to the full walk horizon that
	// yields TouchedSources (zero for a batch that nets out).
	TouchBFS time.Duration
	// RowCarry is the carry-over of surviving row-cache entries and of
	// the walk memo's keys and kept sides.
	RowCarry time.Duration
	// Filters is the SR-SP filter invalidation: per built pool, a copy
	// of the block table's page pointers and a clone of each page that
	// holds a touched head.
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
// Compared to NewEngine on the mutated graph (plus a filter warm-up),
// the derived engine skips almost all of the rebuild:
//
//   - the mutated CSR and its reverse are compacted incrementally from
//     the update overlay (bulk copies of the untouched rows, no
//     re-sort);
//   - row-cache entries survive unless their source reaches a touched
//     arc head within the cached walk horizon (a bounded BFS over the
//     new graph decides), and the survivors move to the successor's
//     cache in one pass;
//   - built SR-SP filter pools are patched per vertex: the vertices
//     whose reversed out-row changed are invalidated on cloned pages of
//     the block table, and re-sampled only when an SR-SP propagation
//     first reaches them (or by WarmFilters), so an update re-samples
//     no filter;
//   - the walk memo of the Sampling and SR-TS source kernel carries
//     over with the batch's staged heads, the rows it may have changed.
//     The update checks no walk: the successor's next source query
//     reuses each kept chunk none of whose walks left such a row, and
//     re-draws the others (walkmemo.go).
//
// Every query on the derived engine is bit-identical to the same query
// on a freshly built engine over the mutated graph with the same
// options: walk streams depend only on (seed, vertex, side), retained
// rows are prefix-stable, re-sampled filters reproduce the from-scratch
// build exactly, and a reused walk chunk is the one a fresh draw gives.
// The oracle test suite pins this. Kernel and row-cache counters carry
// over, so lifetime totals read from the newest generation never drop.
//
// An empty update batch is legal and yields a successor with all warm
// state retained (only the generation changes).
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
	heads := d.TouchedHeads()
	// Both invalidation BFS runs read the new graph alone, yet give the
	// distances over the union of the old and new adjacency: every arc
	// the batch deletes ends at a head that seeds both runs, and a
	// shortest path from the seeds never enters a seed, so no old arc
	// can shorten a distance.

	stats := &UpdateStats{
		Applied:      d.NetChanges(),
		TouchedHeads: len(heads),
		Generation:   e.gen + 1,
	}
	lap(&stats.Phases.Compact)

	// Row-cache carry-over. A cached entry holds rows 0..D for its
	// source on the reversed graph; level k changes only if the source
	// reaches a touched head within k−1 steps of the original-direction
	// graph. Evict iff dist(src) ≤ D−1, i.e. some cached level is
	// inside the horizon.
	maxDepth, cached := 0, 0
	e.rows.Range(func(_ int, rows []matrix.Vec) {
		maxDepth = max(maxDepth, len(rows)-2)
		cached++
	})
	lap(&stats.Phases.RowCarry)
	var dist []int32
	if len(heads) > 0 && cached > 0 {
		dist = ugraph.BoundedDistances(heads, maxDepth, newG)
	}
	lap(&stats.Phases.EvictBFS)

	// Touched-source set for downstream consumers (the subscription
	// plane): a second BFS seeded only by the net-changed heads, run to
	// the full walk horizon Steps−1. It is deliberately separate from
	// the eviction BFS above — eviction stays conservative over every
	// staged head (a netted-out arc costs at most a spurious eviction),
	// while wake-ups must be precise (a netted-out batch changes no
	// answer and must produce an empty set).
	if netHeads := d.NetChangedHeads(); len(netHeads) > 0 {
		horizon := max(e.opt.Steps-1, 0)
		for v, dv := range ugraph.BoundedDistances(netHeads, horizon, newG) {
			if dv >= 0 {
				stats.TouchedSources = append(stats.TouchedSources, int32(v))
			}
		}
	}
	lap(&stats.Phases.TouchBFS)
	// Rows that queries on the predecessor cached after the depth scan
	// above are evicted unless the BFS reached deep enough to clear them.
	newRows := e.rows.Carry(func(src int, rows []matrix.Vec) bool {
		depth := len(rows) - 2
		if len(heads) > 0 && (dist == nil || depth > maxDepth || (dist[src] >= 0 && int(dist[src]) <= depth)) {
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
	// as a fresh engine. Touched vertices on the reversed graph are
	// exactly the heads: rev out-row of y holds the reversed (·, y)
	// arcs.
	e.filterMu.Lock()
	poolU, poolV := e.poolU, e.poolV
	e.filterMu.Unlock()
	var newPoolU, newPoolV *speedup.Filters
	if poolU != nil {
		newPoolU = speedup.PatchFilters(poolU, newRev, heads)
		stats.FiltersPatched = true
		stats.FilterVerticesRebuilt = len(heads)
		if poolV == poolU {
			newPoolV = newPoolU
		} else {
			newPoolV = speedup.PatchFilters(poolV, newRev, heads)
			stats.FilterVerticesRebuilt += len(heads)
		}
	}
	lap(&stats.Phases.Filters)

	stats.HorizonDepth = maxDepth
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
		memo:       memo,
		kc:         e.kc,
		filterBase: e.filterBase,
	}, stats, nil
}
