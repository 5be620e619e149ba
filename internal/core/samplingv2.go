package core

import (
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/speedup"
)

// This file plumbs the v2 sampling kernel (internal/mc's Plan/Arena)
// into the engine as the SamplingV2 strategy. The estimator is the same
// Fig. 4 Monte Carlo scheme as AlgSampling and keeps the same
// determinism contract — per-side walk streams seeded by (engine seed,
// vertex, side), fixed-size chunks, integer per-chunk counts merged in
// chunk order, bit-identical at every Parallelism — but consumes
// randomness in the v2 kernel's order, so it is pinned by its own
// golden files rather than v1's. Its kernels are Eq. 15's
// (twoPhaseWith, twoPhaseKernel) at exact depth −1 with the engine's
// Plan as the walk sampler: the same code Sampling and SR-TS's tail
// run, on the walk driver (walkgrid.go).
//
// The whole path is allocation-free at steady state: chunk sets,
// position grids, counts and the walk arena live in pooled v2scratch
// buffers that grow to a high-water mark and are reused. At
// Parallelism 1 the fan-out branches are bypassed entirely (a closure
// handed to Pool.For escapes to the heap), which is the configuration
// the allocation regression gate measures.

// v2scratch is one worker's reusable sampling state: the walk driver's
// chunk sets, grids and arena (see walkgrid.go), the adaptive rounds'
// per-walk scores, the occupancy fold's dense buffers and SR-SP's
// counting tables. It is handed out exclusively by the engine's scratch pool;
// all fields are high-water buffers.
type v2scratch struct {
	arena mc.Arena
	r     rng.RNG // by value: reseeded per stream, never allocated

	cu, cv []parallel.Chunk // walk chunk sets of the two sides
	posU   []int32          // the source side's chunk grids, back to back
	posV   []int32          // v-side position grid of one chunk
	uoff   []int32          // per-chunk offsets into posU (see layoutGrids)
	counts []int64          // integer meeting counts
	m      []float64        // merged m̂(k) estimate

	// Walk-grid state; see walkgrid.go. gridU[ci] is the source side's
	// chunk ci (a block of posU or a kept grid; nil until drawn), side
	// says how it is drawn, and gridV holds a candidate's chunk grids.
	// They may reference kept grids until the next layout.
	gridU, gridV [][]int32
	side         sideDraw
	tally        walkTally // kernel counts of this checkout, added at release

	// Adaptive (ε, δ) round-loop state; see adaptive.go.
	xbuf []float64 // per-walk score scratch of one chunk

	// Occupancy fold state; see indexed.go. The dense per-vertex
	// buffers are all-zero between uses: the fold clears every entry
	// it sets.
	cnt []int32   // per-vertex walk count of one chunk's step row
	acc []float64 // per-vertex occupancy of one step, summed in chunk order
	hit []uint64  // bitset of the vertices acc holds this step

	// SR-SP state: one vertex's counting tables and the frontier
	// scratch that propagates them; see propagatePair.
	tab  speedup.Tables
	prop speedup.Scratch
}

// newV2Pool sizes the scratch pool for opt: every worker plus a few
// outer query scopes can hold a buffer without thrashing.
func newV2Pool(opt Options) *parallel.BufferPool[*v2scratch] {
	return parallel.NewBufferPool(2*opt.Parallelism+4, func() *v2scratch { return new(v2scratch) })
}

// v2Plan returns the engine's arc-sampling plan over the reversed
// graph, building it on first use. The plan is a pure function of the
// graph, so a lazily built plan is indistinguishable from an eager one;
// ApplyUpdates successors start with no plan and rebuild on demand.
func (e *Engine) v2Plan() *mc.Plan {
	if p := e.v2plan.Load(); p != nil {
		return p
	}
	e.v2mu.Lock()
	defer e.v2mu.Unlock()
	if p := e.v2plan.Load(); p != nil {
		return p
	}
	p := mc.BuildPlan(e.rev)
	e.v2plan.Store(p)
	return p
}

// SamplingV2 computes ŝ(n)(u,v) with the v2 Monte Carlo kernel — the
// same estimator as Sampling, rebuilt allocation-free and cache-aware
// (see internal/mc). Scores are bit-identical across Parallelism levels
// and across query shapes, but not to Sampling's: the two strategies
// consume randomness differently and are pinned independently.
func (e *Engine) SamplingV2(u, v int) (float64, error) {
	return e.twoPhaseWith(e.pool, AlgSamplingV2.row(), u, v)
}

// High-water buffer helpers: reuse capacity, reallocate only on growth.

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
