package core

import (
	"sync/atomic"
)

// kernelCounters aggregates lifetime resource counts across every query
// of one engine. Increments happen at chunk granularity (one atomic add
// per ~128-walk chunk, never per walk), so the counters are effectively
// free next to the sampling work they measure and keep the v2 kernel's
// zero-allocation steady state intact.
type kernelCounters struct {
	walks     atomic.Uint64 // random walks sampled (all Monte Carlo kernels)
	arcs      atomic.Uint64 // arc instantiations recorded by the v2 kernel
	arenaHigh atomic.Uint64 // largest v2 arena footprint seen, bytes
}

// noteArena raises the arena high-water mark to b if larger (CAS max).
func (k *kernelCounters) noteArena(b uint64) {
	for {
		cur := k.arenaHigh.Load()
		if b <= cur || k.arenaHigh.CompareAndSwap(cur, b) {
			return
		}
	}
}

// KernelStats is a snapshot of an engine's lifetime kernel resource
// counters, the raw material of the /metrics kernel gauges.
type KernelStats struct {
	// Walks is the total number of random walks sampled, across all
	// Monte Carlo kernels (v1 sampling, two-phase tails, v2, occupancy /
	// index-residual sampling).
	Walks uint64
	// ArcsInstantiated counts possible-world arc-set instantiations
	// recorded by the v2 kernel's walk arenas.
	ArcsInstantiated uint64
	// ArenaHighWaterBytes is the largest single v2 arena footprint
	// observed so far.
	ArenaHighWaterBytes uint64
	// ScratchGets and ScratchMisses describe the v2 scratch buffer pool,
	// which the occupancy kernel (index rows, indexed residuals) shares:
	// a miss built a fresh buffer, so a steady state should show the
	// miss count plateau while gets keep climbing.
	ScratchGets   uint64
	ScratchMisses uint64
}

// KernelStats returns the engine's lifetime kernel resource counters.
func (e *Engine) KernelStats() KernelStats {
	gets, misses := e.v2pool.Stats()
	return KernelStats{
		Walks:               e.kc.walks.Load(),
		ArcsInstantiated:    e.kc.arcs.Load(),
		ArenaHighWaterBytes: e.kc.arenaHigh.Load(),
		ScratchGets:         gets,
		ScratchMisses:       misses,
	}
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
