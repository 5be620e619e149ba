// Package core implements SimRank on uncertain graphs (Sec. V–VI of the
// paper): the measure s(n)(u,v) of Definition 1 and its computation
// strategies — the exact Baseline, the Monte Carlo Sampling algorithm,
// the Two-Phase algorithm (SR-TS, exact prefix + sampled tail, Eq. 15),
// the Two-Phase algorithm with the bit-vector speed-up (SR-SP), and
// SamplingV2, the allocation-free cache-aware rewrite of the Monte
// Carlo kernel (internal/mc's lockstep Plan/Arena machinery).
//
// SimRank propagates similarity along in-arcs (two random surfers walk
// backwards until they meet), so the engine runs all walk machinery on
// the reversed uncertain graph. On a graph whose arcs all have
// probability 1 the measure coincides with deterministic SimRank
// (Theorem 3); the test suite verifies this against package detsim.
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"usimrank/internal/cache"
	"usimrank/internal/matrix"
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/speedup"
	"usimrank/internal/ugraph"
	"usimrank/internal/walkpr"
)

// Options configures the engine. The zero value selects the paper's
// defaults: c = 0.6, n = 5, N = 1000, l = 1.
type Options struct {
	// C is the decay factor, 0 < C < 1. Default 0.6.
	C float64
	// Steps is the number of SimRank iterations n. Default 5.
	Steps int
	// N is the number of sampled walk pairs. Default 1000.
	N int
	// L is the two-phase split: meeting probabilities for k ≤ L are
	// computed exactly, the rest sampled. Default 1.
	L int
	// Seed drives all randomness; equal seeds give identical results.
	// Default 1.
	Seed uint64
	// MaxStates caps the exact method's walk states per level
	// (walkpr.DefaultMaxStates when 0).
	MaxStates int
	// SharedPool makes SR-SP use one filter-vector pool for both the
	// u-side and the v-side, the literal reading of Fig. 5. The default
	// (false) builds two independent pools, which matches the
	// independence semantics of the Sampling algorithm; the ablation
	// experiments quantify the difference.
	SharedPool bool
	// RowCacheSize bounds the shared per-source exact-row LRU cache.
	// When the working set exceeds it, the least-recently-used source's
	// rows are evicted one at a time (never a wholesale reset). Default
	// 4096.
	RowCacheSize int
	// Parallelism bounds the worker goroutines of the sampling hot
	// paths: Monte Carlo chunks, SR-SP filter construction and
	// propagations, and the SRSPMatrix sweep. Default
	// runtime.GOMAXPROCS(0). Results are bit-identical for every value
	// ≥ 1: random work is split into fixed-size chunks whose seeds
	// derive from the engine seed in chunk order, never from
	// scheduling.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.Steps == 0 {
		o.Steps = 5
	}
	if o.N == 0 {
		o.N = 1000
	}
	if o.L == 0 {
		o.L = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RowCacheSize == 0 {
		o.RowCacheSize = 4096
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) validate() error {
	if !(o.C > 0 && o.C < 1) {
		return fmt.Errorf("core: decay factor %v outside (0,1)", o.C)
	}
	if o.Steps < 1 {
		return fmt.Errorf("core: steps %d < 1", o.Steps)
	}
	if o.N < 1 {
		return fmt.Errorf("core: sample count %d < 1", o.N)
	}
	if o.L < 0 || o.L > o.Steps {
		return fmt.Errorf("core: two-phase split l=%d outside [0,%d]", o.L, o.Steps)
	}
	if o.Parallelism < 1 {
		return fmt.Errorf("core: parallelism %d < 1", o.Parallelism)
	}
	if o.RowCacheSize < 1 {
		return fmt.Errorf("core: row cache size %d < 1", o.RowCacheSize)
	}
	return nil
}

// Engine computes SimRank similarities over one uncertain graph. It is
// safe for concurrent use: queries may be issued from many goroutines,
// and each query additionally fans its own sampling work out over the
// engine's worker pool (bounded by Options.Parallelism). Determinism is
// preserved either way — results depend only on the options and the
// query, never on scheduling.
type Engine struct {
	g    *ugraph.Graph // original graph
	rev  *ugraph.Graph // reversed graph, where the walks run
	opt  Options
	pool *parallel.Pool // bounded at opt.Parallelism

	// rows caches per-source exact transition rows: rows[k] =
	// Pr_rev(src →k ·) for k = 0..len-1. Bounded LRU, shared by every
	// query shape (pair, single-source, matrix, batch, top-k).
	rows *cache.LRU[int, []matrix.Vec]

	// SR-SP filter pools, built whole on first use (see pools). An
	// ApplyUpdates successor inherits them patched: invalidated heads
	// are re-sampled by the first propagation that reaches them.
	filterMu sync.Mutex // guards lazy poolU/poolV construction
	poolU    *speedup.Filters
	poolV    *speedup.Filters

	// v2 sampling kernel state: the precomputed arc-sampling plan over
	// rev (built lazily on the first SamplingV2 query of a generation;
	// see v2Plan) and the bounded pool of reusable per-worker scratch.
	// The scratch pool is shared with clones and ApplyUpdates
	// successors — buffer sizing depends only on the options, which
	// successors inherit — so warmed buffers survive graph mutations.
	v2mu   sync.Mutex
	v2plan atomic.Pointer[mc.Plan]
	v2pool *parallel.BufferPool[*v2scratch]

	// gen is the graph generation: 1 from NewEngine, predecessor+1 from
	// ApplyUpdates. See Generation.
	gen uint64

	// memo keeps SR-TS source-kernel walk grids across queries and
	// generations (walkmemo.go); ApplyUpdates carries it, and NewEngine
	// and Clone start it empty. nil when not one side fits its budget.
	memo *walkMemo

	// kc aggregates lifetime kernel resource counts (walks sampled, v2
	// arc instantiations, arena high-water) for the observability plane.
	// ApplyUpdates successors, and engines that ContinueCounters from
	// this one, share it, like the row cache's counters, so the lifetime
	// totals never drop across a generation swap or a reload.
	kc *kernelCounters
	// filterBase is the filter re-sample count of the engines whose
	// counters this one continues (see ContinueCounters); the count of
	// its own pools' lineage adds to it.
	filterBase uint64
}

// NewEngine validates opt and builds an engine for g.
func NewEngine(g *ugraph.Graph, opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return &Engine{
		g:      g,
		rev:    g.Reverse(),
		opt:    opt,
		pool:   parallel.NewPool(opt.Parallelism),
		rows:   cache.New[int, []matrix.Vec](opt.RowCacheSize),
		v2pool: newV2Pool(opt),
		gen:    1,
		memo:   newWalkMemo(opt),
		kc:     new(kernelCounters),
	}, nil
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opt }

// WorkerPool returns the engine's bounded worker pool. Sweeps layered
// on top of the engine (top-k, batch) should fan out on this pool
// rather than a fresh one: its helper tokens are pool-wide, so outer
// fan-outs and the kernels they call share one Parallelism bound
// instead of multiplying.
func (e *Engine) WorkerPool() *parallel.Pool { return e.pool }

// Graph returns the engine's uncertain graph.
func (e *Engine) Graph() *ugraph.Graph { return e.g }

func (e *Engine) checkVertex(v int) error {
	if v < 0 || v >= e.g.NumVertices() {
		return fmt.Errorf("core: vertex %d out of range [0,%d)", v, e.g.NumVertices())
	}
	return nil
}

// exactRows returns Pr_rev(src →k ·) for k = 0..K through the shared
// LRU row cache. The row computation itself runs outside the cache's
// lock so concurrent queries for different sources proceed in parallel
// (two goroutines missing on the same source both compute it —
// identical values, last insert wins). Cached rows are immutable;
// callers only read them.
func (e *Engine) exactRows(src, K int) ([]matrix.Vec, error) {
	if rows, ok := e.rows.Get(src); ok && len(rows) > K {
		return rows[:K+1], nil
	}
	rows, err := walkpr.TransitionRows(e.rev, src, K, walkpr.Options{MaxStates: e.opt.MaxStates})
	if err != nil {
		return nil, err
	}
	e.rows.Add(src, rows)
	return rows, nil
}

// WarmRows precomputes the exact transition rows of the given sources
// for k = 0..K and inserts them into the shared row cache — the
// explicit prefetch path for sweeps that are about to touch every
// source (all-pairs top-k, matrix queries). The computation fans out
// over the engine's worker pool; insertion happens afterwards in
// vertex order, so the resulting cache state is deterministic. Sources
// beyond the cache's capacity are not computed: warming more than the
// cache can hold would only evict rows warmed a moment earlier.
func (e *Engine) WarmRows(vertices []int, K int) error {
	for _, v := range vertices {
		if err := e.checkVertex(v); err != nil {
			return err
		}
	}
	if c := e.rows.Cap(); len(vertices) > c {
		vertices = vertices[:c]
	}
	rows := make([][]matrix.Vec, len(vertices))
	errs := make([]error, len(vertices))
	e.pool.For(len(vertices), func(i int) {
		if cached, ok := e.rows.Get(vertices[i]); ok && len(cached) > K {
			return // already warm
		}
		rows[i], errs[i] = walkpr.TransitionRows(e.rev, vertices[i], K, walkpr.Options{MaxStates: e.opt.MaxStates})
	})
	for i, err := range errs {
		if err != nil {
			return err
		}
		if rows[i] != nil {
			e.rows.Add(vertices[i], rows[i])
		}
	}
	return nil
}

// RowCacheStats reports the shared row cache's current occupancy and
// the total number of evictions so far (a thrash metric for sizing
// RowCacheSize).
func (e *Engine) RowCacheStats() (size int, evictions uint64) {
	return e.rows.Len(), e.rows.Evictions()
}

// WarmRowsFor warms the row cache for a sweep that will run alg over
// the given sources, deriving the prefix depth from the algorithm so
// callers cannot drift from what the kernels actually fetch. A no-op
// for algorithms that never touch exact rows.
func (e *Engine) WarmRowsFor(alg Algorithm, vertices []int) error {
	depth := alg.row().depth(e)
	if depth < 0 {
		return nil
	}
	return e.WarmRows(vertices, depth)
}

// MeetingWalker progressively yields the exact meeting probabilities
// m(0)(u,v), m(1)(u,v), … one step per Next call. Unlike repeated
// MeetingExact calls — which recompute v's rows 0..j from scratch at
// every deepening — each level of v's transition rows is computed
// exactly once over the walker's lifetime, while u's rows come from the
// shared cache at full depth up-front (a top-k sweep reuses the source
// against every candidate anyway). Values are bit-identical to
// MeetingExact. A walker is single-goroutine state; create one per
// candidate.
type MeetingWalker struct {
	ru []matrix.Vec
	rw *walkpr.RowWalker
	k  int
}

// NewMeetingWalker returns a walker over m(k)(u, v) for k = 0..maxK.
func (e *Engine) NewMeetingWalker(u, v, maxK int) (*MeetingWalker, error) {
	if err := e.checkVertex(u); err != nil {
		return nil, err
	}
	if err := e.checkVertex(v); err != nil {
		return nil, err
	}
	ru, err := e.exactRows(u, maxK)
	if err != nil {
		return nil, err
	}
	rw, err := walkpr.NewRowWalker(e.rev, v, walkpr.Options{MaxStates: e.opt.MaxStates})
	if err != nil {
		return nil, err
	}
	return &MeetingWalker{ru: ru, rw: rw}, nil
}

// Next returns m(k)(u, v) for the next k, starting at k = 0. Calling it
// past the maxK the walker was built for panics (u's rows end there).
func (w *MeetingWalker) Next() (float64, error) {
	rows, err := w.rw.Rows(w.k)
	if err != nil {
		return 0, err
	}
	m := w.ru[w.k].Dot(rows[w.k])
	w.k++
	return m, nil
}

// MeetingExact returns the exact meeting probabilities
// m(k)(u,v) = Σ_w Pr(u →k w)·Pr(v →k w) for k = 0..K.
func (e *Engine) MeetingExact(u, v, K int) ([]float64, error) {
	if err := e.checkVertex(u); err != nil {
		return nil, err
	}
	if err := e.checkVertex(v); err != nil {
		return nil, err
	}
	ru, err := e.exactRows(u, K)
	if err != nil {
		return nil, err
	}
	rv, err := e.exactRows(v, K)
	if err != nil {
		return nil, err
	}
	m := make([]float64, K+1)
	for k := 0; k <= K; k++ {
		m[k] = ru[k].Dot(rv[k])
	}
	return m, nil
}

// Combine evaluates Eq. 12: s(n) = cⁿ·m[n] + (1−c)·Σ_{k=0}^{n−1} cᵏ·m[k].
// It panics if m has fewer than n+1 entries.
func Combine(m []float64, c float64, n int) float64 {
	if len(m) < n+1 {
		panic(fmt.Sprintf("core: need %d meeting probabilities, have %d", n+1, len(m)))
	}
	s := math.Pow(c, float64(n)) * m[n]
	ck := 1.0
	for k := 0; k < n; k++ {
		s += (1 - c) * ck * m[k]
		ck *= c
	}
	return s
}

// CombineTwoPhase evaluates Eq. 15: exact meeting probabilities are used
// for k ≤ l, sampled estimates for l < k ≤ n.
func CombineTwoPhase(exact, sampled []float64, c float64, l, n int) float64 {
	if l >= n {
		return Combine(exact, c, n)
	}
	if len(exact) < l+1 || len(sampled) < n+1 {
		panic("core: meeting probability slices too short")
	}
	s := math.Pow(c, float64(n)) * sampled[n]
	ck := 1.0
	for k := 0; k <= l; k++ {
		s += (1 - c) * ck * exact[k]
		ck *= c
	}
	for k := l + 1; k < n; k++ {
		s += (1 - c) * ck * sampled[k]
		ck *= c
	}
	return s
}

// ErrorBound returns the Theorem 2 truncation bound |s(n) − s| ≤ c^(n+1).
func ErrorBound(c float64, n int) float64 {
	return math.Pow(c, float64(n+1))
}

// TwoPhaseErrorBound returns the Corollary 1 sampling-error factor
// c^(l+1) − c^n multiplying ε.
func TwoPhaseErrorBound(c float64, l, n int) float64 {
	return math.Pow(c, float64(l+1)) - math.Pow(c, float64(n))
}

// Baseline computes s(n)(u,v) exactly (Sec. VI-A): Eq. 15 with every
// step exact.
func (e *Engine) Baseline(u, v int) (float64, error) {
	return e.twoPhaseWith(e.pool, AlgBaseline.row(), u, v)
}

// Per-side walk-stream salts: a vertex's u-side and v-side walk sets
// stay independent even for s(u,u).
const (
	saltWalkU = 0xA5
	saltWalkV = 0x5A
)

// sideSeed derives the deterministic seed of one vertex's walk stream
// on one side of the meeting computation. The stream depends only on
// (engine seed, vertex, side) — never on the other endpoint of the
// query — which is what lets the single-source kernels sample the
// source's walks once and replay them against every candidate while
// staying bit-identical to the pairwise path.
func (e *Engine) sideSeed(v int, salt uint64) uint64 {
	x := e.opt.Seed ^ (uint64(v)+1)*0x9e3779b97f4a7c15 ^ salt*0xc2b2ae3d27d4eb4f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// MeetingSampled estimates m(k)(u,v) for k = 0..Steps with the Sampling
// algorithm (Fig. 4): the sampled tail of Sampling and SR-TS, drawn on
// pooled grids by meetingGridWith. The N sample pairs are split into
// fixed-size chunks; chunk i pairs the i-th chunk of u's walk stream
// with the i-th chunk of v's, the chunks run concurrently on the
// engine's pool, and their integer meeting counts merge in chunk
// order, so the estimate is bit-identical for every Parallelism.
func (e *Engine) MeetingSampled(u, v int) ([]float64, error) {
	if err := e.checkVertex(u); err != nil {
		return nil, err
	}
	if err := e.checkVertex(v); err != nil {
		return nil, err
	}
	s := e.v2pool.Get()
	defer e.release(s)
	return slices.Clone(e.meetingGridWith(e.pool, s, nil, u, v)), nil
}

// Sampling computes ŝ(n)(u,v) by pure Monte Carlo (Sec. VI-B, Eq. 14):
// Eq. 15 with no step exact.
func (e *Engine) Sampling(u, v int) (float64, error) {
	return e.twoPhaseWith(e.pool, AlgSampling.row(), u, v)
}

// TwoPhase computes ŝ(n)(u,v) with the SR-TS algorithm (Sec. VI-C):
// exact meeting probabilities for k ≤ l, sampled for l < k ≤ n.
func (e *Engine) TwoPhase(u, v int) (float64, error) {
	return e.twoPhaseWith(e.pool, AlgTwoPhase.row(), u, v)
}

// twoPhaseWith is the pair kernel of Eq. 15 for the strategies whose
// tail is drawn as walks: exact meeting probabilities for k ≤ l, st's
// exact depth (Steps for Baseline, L for SR-TS, −1 for Sampling and
// Sampling-v2), and meetingGridWith's sampled m̂(k), drawn with st's
// sampler, above it. At l = −1 it reads no exact row, and CombineTwoPhase
// is Combine operation for operation. Batch passes its own pool, so the
// two fan-out levels never multiply into Parallelism² goroutines.
func (e *Engine) twoPhaseWith(p *parallel.Pool, st *strategy, u, v int) (float64, error) {
	if err := e.checkVertex(u); err != nil {
		return 0, err
	}
	if err := e.checkVertex(v); err != nil {
		return 0, err
	}
	n, l := e.opt.Steps, st.depth(e)
	var exact []float64
	if l >= 0 {
		var err error
		if exact, err = e.MeetingExact(u, v, l); err != nil {
			return 0, err
		}
	}
	if l >= n {
		return Combine(exact, e.opt.C, n), nil
	}
	s := e.v2pool.Get()
	defer e.release(s)
	return CombineTwoPhase(exact, e.meetingGridWith(p, s, st.tailPlan(e), u, v), e.opt.C, l, n), nil
}

// pools lazily builds the SR-SP filter-vector pools (the paper's offline
// phase), fanning the per-vertex filter construction out over the
// engine's worker pool. With SharedPool both sides use one pool, the
// literal Fig. 5. The mutex makes the lazy build safe under concurrent
// first queries. A built pool's filters never change: vertices an update
// invalidated are re-sampled bit-identically on first use.
func (e *Engine) pools() (*speedup.Filters, *speedup.Filters) {
	e.filterMu.Lock()
	defer e.filterMu.Unlock()
	if e.poolU == nil {
		e.poolU = speedup.BuildFiltersPool(e.rev, e.opt.N, rng.New(e.opt.Seed^0xF117E55), e.pool)
		if e.opt.SharedPool {
			e.poolV = e.poolU
		} else {
			e.poolV = speedup.BuildFiltersPool(e.rev, e.opt.N, rng.New(e.opt.Seed^0x0DDB175), e.pool)
		}
	}
	return e.poolU, e.poolV
}

// MeetingSpeedup estimates m(k)(u,v) for k = 0..Steps with the bit-vector
// speed-up (Sec. VI-D, Eq. 16).
func (e *Engine) MeetingSpeedup(u, v int) ([]float64, error) {
	if err := e.checkVertex(u); err != nil {
		return nil, err
	}
	if err := e.checkVertex(v); err != nil {
		return nil, err
	}
	su, sv := e.v2pool.Get(), e.v2pool.Get()
	defer e.release(su)
	defer e.release(sv)
	if err := e.propagatePair(e.pool, su, sv, u, v); err != nil {
		return nil, err
	}
	return speedup.MeetingEstimates(&su.tab, &sv.tab), nil
}

// propagatePair propagates u's counting tables over the u-side pool into
// su.tab and v's over the v-side pool into sv.tab, the two fanned out
// over p. On a cancelled pool it returns the pool's error, and the
// tables may be stale.
func (e *Engine) propagatePair(p *parallel.Pool, su, sv *v2scratch, u, v int) error {
	fu, fv := e.pools()
	n := e.opt.Steps
	if p.Workers() <= 1 {
		if p.Err() == nil {
			speedup.PropagateInto(&su.tab, &su.prop, fu, u, n)
		}
		if p.Err() == nil {
			speedup.PropagateInto(&sv.tab, &sv.prop, fv, v, n)
		}
	} else {
		p.For(2, func(side int) {
			if side == 0 {
				speedup.PropagateInto(&su.tab, &su.prop, fu, u, n)
			} else {
				speedup.PropagateInto(&sv.tab, &sv.prop, fv, v, n)
			}
		})
	}
	return p.Err()
}

// SRSP computes ŝ(n)(u,v) with the two-phase algorithm whose sampling
// stage uses the speed-up technique (the paper's SR-SP).
func (e *Engine) SRSP(u, v int) (float64, error) {
	return e.srspWith(e.pool, AlgSRSP.row(), u, v)
}

// srspWith is SRSP on an explicit pool. Its state is pooled: the two
// counting tables and the estimate live in v2scratch buffers, so with
// the rows cached and the filters built it allocates nothing.
func (e *Engine) srspWith(p *parallel.Pool, st *strategy, u, v int) (float64, error) {
	if err := e.checkVertex(u); err != nil {
		return 0, err
	}
	if err := e.checkVertex(v); err != nil {
		return 0, err
	}
	l := st.depth(e)
	ru, err := e.exactRows(u, l)
	if err != nil {
		return 0, err
	}
	rv, err := e.exactRows(v, l)
	if err != nil {
		return 0, err
	}
	su, sv := e.v2pool.Get(), e.v2pool.Get()
	defer e.release(su)
	defer e.release(sv)
	if l < e.opt.Steps {
		if err := e.propagatePair(p, su, sv, u, v); err != nil {
			return 0, err
		}
	}
	return e.srspPair(ru, rv, &su.tab, &sv.tab, l, su), nil
}

// SRSPMatrix computes ŝ(n) for every pair of the given vertices with the
// SR-SP strategy, propagating each vertex's counting tables exactly once
// per side — the amortisation the BFS-sharing speed-up is designed for.
// The result is symmetric in the sense out[i][j] uses vertices[i] on the
// u-side pool and vertices[j] on the v-side pool; out[i][i] is computed
// like any other pair. Cost: O(len(vertices)) propagations plus
// O(len(vertices)²) bit-vector dot products, versus O(len(vertices)²)
// propagations for pairwise SRSP calls.
func (e *Engine) SRSPMatrix(vertices []int) ([][]float64, error) {
	for _, v := range vertices {
		if err := e.checkVertex(v); err != nil {
			return nil, err
		}
	}
	n := e.opt.Steps
	l := e.splitDepth()

	// Phase 1: counting-table propagations, two independent tasks per
	// vertex (u-side and v-side pools), fanned out over the worker pool.
	// Each task propagates into pooled tables and keeps an exactly sized
	// clone in its own slot, so the fan-out is deterministic.
	tabU := make([]*speedup.Tables, len(vertices))
	tabV := make([]*speedup.Tables, len(vertices))
	if l < n {
		fu, fv := e.pools()
		e.pool.For(2*len(vertices), func(t int) {
			w := e.v2pool.Get()
			defer e.release(w)
			i := t / 2
			if t%2 == 0 {
				speedup.PropagateInto(&w.tab, &w.prop, fu, vertices[i], n)
				tabU[i] = w.tab.Clone()
			} else {
				speedup.PropagateInto(&w.tab, &w.prop, fv, vertices[i], n)
				tabV[i] = w.tab.Clone()
			}
		})
	}
	// Phase 2: exact prefix rows, sequential so every source hits the
	// row cache exactly once and errors surface deterministically.
	exact := make([][]matrix.Vec, len(vertices))
	for i, v := range vertices {
		rows, err := e.exactRows(v, l)
		if err != nil {
			return nil, err
		}
		exact[i] = rows
	}
	// Phase 3: pairwise combination through the same per-pair kernel the
	// single-source SRSP path uses, one output row per task.
	out := make([][]float64, len(vertices))
	for i := range vertices {
		out[i] = make([]float64, len(vertices))
	}
	e.pool.For(len(vertices), func(i int) {
		w := e.v2pool.Get()
		defer e.release(w)
		for j := range vertices {
			out[i][j] = e.srspPair(exact[i], exact[j], tabU[i], tabV[j], l, w)
		}
	})
	return out, nil
}

// Series returns the exact iterates s(0), s(1), …, s(maxN) of the
// SimRank sequence (Definition 1), the convergence curve of Fig. 8.
func (e *Engine) Series(u, v, maxN int) ([]float64, error) {
	if maxN < 0 {
		return nil, fmt.Errorf("core: negative maxN %d", maxN)
	}
	m, err := e.MeetingExact(u, v, maxN)
	if err != nil {
		return nil, err
	}
	out := make([]float64, maxN+1)
	for n := 0; n <= maxN; n++ {
		out[n] = Combine(m, e.opt.C, n)
	}
	return out, nil
}
