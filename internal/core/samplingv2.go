package core

import (
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
)

// This file plumbs the v2 sampling kernel (internal/mc's Plan/Arena)
// into the engine as the SamplingV2 strategy. The estimator is the same
// Fig. 4 Monte Carlo scheme as AlgSampling and keeps the same
// determinism contract — per-side walk streams seeded by (engine seed,
// vertex, side), fixed-size chunks, integer per-chunk counts merged in
// chunk order, bit-identical at every Parallelism — but consumes
// randomness in the v2 kernel's order, so it is pinned by its own
// golden files rather than v1's.
//
// The whole path is allocation-free at steady state: chunk sets,
// position grids, counts and the walk arena live in pooled v2scratch
// buffers that grow to a high-water mark and are reused. At
// Parallelism 1 the fan-out branches are bypassed entirely (a closure
// handed to Pool.For escapes to the heap), which is the configuration
// the allocation regression gate measures.

// v2scratch is one worker's reusable SamplingV2 state. It is handed out
// exclusively by the engine's scratch pool; all fields are high-water
// buffers.
type v2scratch struct {
	arena mc.Arena
	r     rng.RNG // by value: reseeded per stream, never allocated

	cu, cv []parallel.Chunk // walk chunk sets of the two sides
	posU   []int32          // u-side position grid(s)
	posV   []int32          // v-side position grid of one chunk
	uoff   []int32          // per-chunk offsets into posU (single-source)
	counts []int64          // integer meeting counts
	m      []float64        // merged m̂(k) estimate

	// Adaptive (ε, δ) round-loop state; see adaptive.go.
	sums   []float64 // per-chunk Σ X_i of the weighted estimator
	sumsqs []float64 // per-chunk Σ X_i², parallel to sums
	xbuf   []float64 // per-walk score scratch of one chunk

	// Occupancy fold state; see indexed.go. The dense per-vertex
	// buffers are all-zero between uses: the fold clears every entry
	// it sets.
	sampled []bool    // per chunk: its grid was sampled (a cancelled pool skips some)
	cnt     []int32   // per-vertex walk count of one chunk's step row
	acc     []float64 // per-vertex occupancy of one step, summed in chunk order
	hit     []uint64  // bitset of the vertices acc holds this step
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
	return e.samplingV2With(e.pool, u, v)
}

func (e *Engine) samplingV2With(p *parallel.Pool, u, v int) (float64, error) {
	if err := e.checkVertex(u); err != nil {
		return 0, err
	}
	if err := e.checkVertex(v); err != nil {
		return 0, err
	}
	plan := e.v2Plan()
	stride := e.opt.Steps + 1
	s := e.v2pool.Get()
	defer e.v2pool.Put(s)
	s.r.Reseed(e.sideSeed(u, saltWalkU))
	s.cu = parallel.AppendChunks(s.cu[:0], e.opt.N, parallel.DefaultChunkSize, &s.r)
	s.r.Reseed(e.sideSeed(v, saltWalkV))
	s.cv = parallel.AppendChunks(s.cv[:0], e.opt.N, parallel.DefaultChunkSize, &s.r)
	nch := len(s.cu)
	// One private counts slot per chunk: no atomics, merge in chunk
	// order below.
	s.counts = grow(s.counts, nch*stride)
	clearInt64(s.counts)
	if p.Workers() <= 1 || nch == 1 {
		for ci := 0; ci < nch && p.Err() == nil; ci++ {
			e.v2PairChunk(plan, s, s, u, v, ci)
		}
	} else {
		p.For(nch, func(ci int) {
			w := e.v2pool.Get()
			defer e.v2pool.Put(w)
			e.v2PairChunk(plan, s, w, u, v, ci)
		})
	}
	s.m = grow(s.m, stride)
	for k := 0; k < stride; k++ {
		var c int64
		for ci := 0; ci < nch; ci++ {
			c += s.counts[ci*stride+k]
		}
		s.m[k] = float64(c) / float64(e.opt.N)
	}
	return Combine(s.m, e.opt.C, e.opt.Steps), nil
}

// v2PairChunk samples chunk ci of both sides and accumulates its
// meeting counts into the chunk's private slot of s.counts. s carries
// the shared chunk sets and counts grid; w supplies the sampling
// scratch (w == s on the serial path).
func (e *Engine) v2PairChunk(plan *mc.Plan, s, w *v2scratch, u, v, ci int) {
	n := e.opt.Steps
	stride := n + 1
	cu, cv := s.cu[ci], s.cv[ci]
	W := cu.Len() // == cv.Len(): both sides split the same N identically
	w.posU = grow(w.posU, stride*W)
	w.posV = grow(w.posV, stride*W)
	w.r.Reseed(cu.Seed)
	plan.Sample(u, n, W, &w.r, &w.arena, w.posU)
	arcs := w.arena.Instantiated()
	w.r.Reseed(cv.Seed)
	plan.Sample(v, n, W, &w.r, &w.arena, w.posV)
	e.kc.walks.Add(uint64(2 * W))
	e.kc.arcs.Add(uint64(arcs + w.arena.Instantiated()))
	e.kc.noteArena(w.arena.FootprintBytes())
	mc.CountMeets(w.posU, w.posV, n, W, s.counts[ci*stride:(ci+1)*stride])
}

// samplingV2Kernel is the SamplingV2 single-source kernel: the source's
// walk grids are sampled once per chunk into one shared buffer, then
// every candidate samples only its own side and counts meets against
// the shared grids. Per-chunk integer counts accumulate in chunk order
// — the exact pairwise merge — so every score is bit-identical to
// SamplingV2(u, candidates[i]).
func (e *Engine) samplingV2Kernel(p *parallel.Pool, u int, candidates []int, out []float64, _ []error) error {
	plan := e.v2Plan()
	stride := e.opt.Steps + 1
	s := e.v2pool.Get()
	defer e.v2pool.Put(s)
	s.r.Reseed(e.sideSeed(u, saltWalkU))
	s.cu = parallel.AppendChunks(s.cu[:0], e.opt.N, parallel.DefaultChunkSize, &s.r)
	nch := len(s.cu)
	s.layoutGrids(stride)
	if p.Workers() <= 1 {
		for ci := 0; ci < nch && p.Err() == nil; ci++ {
			e.v2SourceChunk(plan, s, s, u, ci)
		}
		for i := 0; i < len(candidates) && p.Err() == nil; i++ {
			out[i] = e.v2Candidate(plan, s, s, candidates[i])
		}
		return nil
	}
	p.For(nch, func(ci int) {
		w := e.v2pool.Get()
		defer e.v2pool.Put(w)
		e.v2SourceChunk(plan, s, w, u, ci)
	})
	// On a cancelled pool view the source grid may be incomplete, but
	// then the candidate fan-out below runs no tasks either; callers of
	// the Ctx query shapes discard the partial output.
	p.For(len(candidates), func(i int) {
		w := e.v2pool.Get()
		defer e.v2pool.Put(w)
		out[i] = e.v2Candidate(plan, s, w, candidates[i])
	})
	return nil
}

// layoutGrids sizes s.posU to hold one stride×W position grid per chunk
// of s.cu, back to back: chunk ci's grid is s.posU[s.uoff[ci]:s.uoff[ci+1]].
func (s *v2scratch) layoutGrids(stride int) {
	s.uoff = grow(s.uoff, len(s.cu)+1)
	total := 0
	for ci, c := range s.cu {
		s.uoff[ci] = int32(total)
		total += stride * c.Len()
	}
	s.uoff[len(s.cu)] = int32(total)
	s.posU = grow(s.posU, total)
}

// v2SourceChunk samples the source's chunk ci into its disjoint block
// of the shared u-side grid.
func (e *Engine) v2SourceChunk(plan *mc.Plan, s, w *v2scratch, u, ci int) {
	c := s.cu[ci]
	w.r.Reseed(c.Seed)
	plan.Sample(u, e.opt.Steps, c.Len(), &w.r, &w.arena, s.posU[s.uoff[ci]:s.uoff[ci+1]])
	e.kc.walks.Add(uint64(c.Len()))
	e.kc.arcs.Add(uint64(w.arena.Instantiated()))
	e.kc.noteArena(w.arena.FootprintBytes())
}

// v2Candidate scores one candidate against the pre-sampled source
// grids. s holds the shared source state (read-only here); w is the
// candidate's private scratch. On the serial path w == s — safe because
// the fields v2Candidate writes (cv, posV, counts, m, r, arena) are not
// read by the source phase again.
func (e *Engine) v2Candidate(plan *mc.Plan, s, w *v2scratch, v int) float64 {
	n := e.opt.Steps
	stride := n + 1
	w.r.Reseed(e.sideSeed(v, saltWalkV))
	w.cv = parallel.AppendChunks(w.cv[:0], e.opt.N, parallel.DefaultChunkSize, &w.r)
	w.counts = grow(w.counts, stride)
	clearInt64(w.counts)
	arcs := 0
	for ci, c := range w.cv {
		W := c.Len()
		w.posV = grow(w.posV, stride*W)
		w.r.Reseed(c.Seed)
		plan.Sample(v, n, W, &w.r, &w.arena, w.posV)
		arcs += w.arena.Instantiated()
		mc.CountMeets(s.posU[s.uoff[ci]:s.uoff[ci+1]], w.posV, n, W, w.counts)
	}
	e.kc.walks.Add(uint64(e.opt.N))
	e.kc.arcs.Add(uint64(arcs))
	e.kc.noteArena(w.arena.FootprintBytes())
	w.m = grow(w.m, stride)
	for k := 0; k < stride; k++ {
		w.m[k] = float64(w.counts[k]) / float64(e.opt.N)
	}
	return Combine(w.m, e.opt.C, n)
}

// High-water buffer helpers: reuse capacity, reallocate only on growth.

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growInt32Keep grows like grow but preserves the existing prefix
// — the adaptive round loop extends the shared source grid in place
// round over round, so earlier rounds' walks must survive a realloc.
func growInt32Keep(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]int32, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

func clearInt64(s []int64) {
	for i := range s {
		s[i] = 0
	}
}
