package core

import (
	"sync/atomic"
)

// kernelCounters aggregates lifetime resource counts across every query
// of one engine. The walk-grid driver tallies them per chunk in the
// drawing scratch without atomics (walkTally) and adds them here once
// per scratch checkout (release), so the counters are effectively free
// next to the sampling work they measure, also under the race detector,
// and keep the v2 kernel's zero-allocation steady state intact.
type kernelCounters struct {
	walks     atomic.Uint64 // random walks sampled (all Monte Carlo kernels)
	reused    atomic.Uint64 // walks the source kernel took from the walk memo
	arcs      atomic.Uint64 // arc instantiations of the chunks drawn with a Plan
	arenaHigh atomic.Uint64 // largest arena footprint after a Plan chunk, bytes
}

// walkTally is what one scratch checkout drew (see drawChunk), not yet
// in the engine's kernelCounters.
type walkTally struct{ walks, reused, arcs, arena uint64 }

// release returns w to the scratch pool after adding its tally to e's
// counters: one atomic operation per counter and checkout, where adds
// per chunk made a sampled adaptive source query 10–35% slower under
// the race detector. The arena high-water mark rises by CAS max.
func (e *Engine) release(w *v2scratch) {
	if t := w.tally; t != (walkTally{}) {
		e.kc.walks.Add(t.walks)
		e.kc.reused.Add(t.reused)
		e.kc.arcs.Add(t.arcs)
		for cur := e.kc.arenaHigh.Load(); t.arena > cur && !e.kc.arenaHigh.CompareAndSwap(cur, t.arena); {
			cur = e.kc.arenaHigh.Load()
		}
		w.tally = walkTally{}
	}
	e.v2pool.Put(w)
}

// KernelStats is a snapshot of an engine's lifetime kernel resource
// counters, the raw material of the /metrics kernel gauges.
type KernelStats struct {
	// Walks is the total number of random walks sampled, across all
	// Monte Carlo kernels (Sampling, two-phase tails, v2 and its
	// adaptive rounds, occupancy / index-residual sampling). A query's
	// walk-grid draws count once their scratch is released.
	Walks uint64
	// WalksReused counts the walks the Sampling and SR-TS single-source
	// kernel took from its walk memo instead of drawing them: chunks
	// kept on an earlier query whose walks left no row changed since.
	// They are not in Walks; drawn plus reused is the walks the queries
	// needed.
	WalksReused uint64
	// ArcsInstantiated counts possible-world arc-set instantiations of
	// the v2 walks: the chunks the walk-grid driver draws with the
	// engine's Plan (SamplingV2 and the adaptive rounds). Chunks drawn
	// with mc.SampleGrid (Sampling, SR-TS's tail, the occupancy fold) do
	// not count here.
	ArcsInstantiated uint64
	// ArenaHighWaterBytes is the largest single walk arena footprint
	// observed after drawing a chunk with the Plan.
	ArenaHighWaterBytes uint64
	// ScratchGets and ScratchMisses describe the v2 scratch buffer pool,
	// which every walk-grid kernel (SamplingV2, the adaptive rounds,
	// SR-TS's sampled tail, the occupancy kernel) and SR-SP share: a
	// miss built a fresh buffer, so a steady state should show the miss
	// count plateau while gets keep climbing.
	ScratchGets   uint64
	ScratchMisses uint64
	// FilterVerticesResampled counts the SR-SP filter blocks re-sampled
	// on first use after an update invalidated them (see ApplyUpdates),
	// across every generation patched from the same filter build.
	FilterVerticesResampled uint64
}

// KernelStats returns the engine's lifetime kernel resource counters.
func (e *Engine) KernelStats() KernelStats {
	gets, misses := e.v2pool.Stats()
	ks := KernelStats{
		Walks:               e.kc.walks.Load(),
		WalksReused:         e.kc.reused.Load(),
		ArcsInstantiated:    e.kc.arcs.Load(),
		ArenaHighWaterBytes: e.kc.arenaHigh.Load(),
		ScratchGets:         gets,
		ScratchMisses:       misses,
	}
	e.filterMu.Lock()
	fu, fv := e.poolU, e.poolV
	e.filterMu.Unlock()
	ks.FilterVerticesResampled = e.filterBase
	if fu != nil {
		ks.FilterVerticesResampled += fu.Resampled()
		if fv != fu {
			ks.FilterVerticesResampled += fv.Resampled()
		}
	}
	return ks
}

// ContinueCounters makes e's lifetime counters continue prev's, as an
// ApplyUpdates successor's do: kernel walks drawn and reused, arc
// instantiations, row cache hits, misses and evictions, and filter
// re-samples. Those totals read from e then never drop below prev's
// when e replaces it, as in a serving plane's reload, which builds e
// from scratch. Work prev records afterwards shows in both, except for
// filter re-samples, which e takes over as a snapshot. The scratch
// pool's checkout counts stay e's own. Call it before e serves a query.
func (e *Engine) ContinueCounters(prev *Engine) {
	e.filterBase = prev.KernelStats().FilterVerticesResampled
	e.kc = prev.kc
	e.rows.ContinueCounters(prev.rows)
}

// RowCacheCounters reports the shared row cache's lifetime hit/miss/
// eviction counts (RowCacheStats reports occupancy; this is the
// effectiveness view).
func (e *Engine) RowCacheCounters() (hits, misses, evictions uint64) {
	hits, misses = e.rows.Counters()
	return hits, misses, e.rows.Evictions()
}

// pairWalks is the analytic walk count of one pairwise query, that of
// a one-candidate source query for a strategy that serves pairs.
// Attached to trace spans so a profile names the sampling effort behind
// each number without the kernels having to thread span handles around.
func (e *Engine) pairWalks(alg Algorithm) int64 {
	if alg.row().pair == nil {
		return 0
	}
	return e.singleSourceWalks(alg, 1)
}

// singleSourceWalks is the analytic walk count of one source query: N
// walks for the source, drawn once and replayed, plus N per candidate
// unless candidates probe an index — and none when the strategy draws
// no walks or its exact prefix covers every step.
func (e *Engine) singleSourceWalks(alg Algorithm, candidates int) int64 {
	switch st := alg.row(); {
	case !st.walks || st.depth(e) >= e.opt.Steps:
		return 0
	case st.index:
		return int64(e.opt.N)
	}
	return int64(e.opt.N) * int64(1+candidates)
}
