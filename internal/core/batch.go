package core

import (
	"context"

	"usimrank/internal/cache"
	"usimrank/internal/matrix"
	"usimrank/internal/parallel"
)

// Compute dispatches to the selected algorithm.
func (e *Engine) Compute(alg Algorithm, u, v int) (float64, error) {
	return e.computeWith(e.pool, alg, u, v)
}

// computeWith dispatches with an explicit sampling pool (nil = inline),
// so outer fan-outs like Batch can disable the per-query one.
func (e *Engine) computeWith(p *parallel.Pool, alg Algorithm, u, v int) (float64, error) {
	st, err := strategyFor(alg)
	if err != nil {
		return 0, err
	}
	return st.pair(e, p, st, u, v)
}

// Clone returns an engine over the same graph with the same options but
// an independent row cache and kernel counters, and an empty walk memo.
// It has e's generation and e's TouchedSources, so an index patch onto
// it recomputes the rows a patch onto e would.
// The reversed graph and the SR-SP filter pools are shared: the graph
// is immutable, and the pools are safe for concurrent use and their
// filters never change (an invalidated vertex re-samples to the bits a
// full build gives). Since the Engine itself is now safe for concurrent
// use, Clone is only needed to isolate row-cache churn between
// workloads, not for safety.
func (e *Engine) Clone() *Engine {
	fu, fv := e.pools() // materialise shared read-only pools before sharing
	clone := &Engine{
		g:       e.g,
		rev:     e.rev,
		opt:     e.opt,
		pool:    e.pool,
		rows:    cache.New[int, []matrix.Vec](e.opt.RowCacheSize),
		poolU:   fu,
		poolV:   fv,
		v2pool:  e.v2pool, // scratch buffers are generic, share the warm pool
		gen:     e.gen,
		touched: e.touched,
		memo:    newWalkMemo(e.opt),
		kc:      new(kernelCounters),
	}
	// Same graph, same plan: share whatever the receiver has built.
	clone.v2plan.Store(e.v2plan.Load())
	return clone
}

// PairResult is one outcome of a Batch computation.
type PairResult struct {
	U, V  int
	Value float64
	Err   error
}

// Batch computes the similarity of every pair concurrently and returns
// results in input order. Pairs are grouped by their first vertex and
// each group runs through the single-source kernel, so a batch that
// asks for many candidates of the same source pays for that source's
// rows, walks and propagations exactly once. All groups share the one
// engine — its LRU row cache, reversed graph and sampled SR-SP filter
// pools. Determinism: the kernels are bit-identical to pairwise
// computation and per-side walk streams depend only on (engine seed,
// vertex, side), so Batch returns the same values as a sequential
// Compute loop regardless of grouping or scheduling. workers < 1
// selects the engine's Parallelism option.
func Batch(e *Engine, alg Algorithm, pairs [][2]int, workers int) []PairResult {
	return batchWith(context.Background(), e, alg, pairs, workers)
}

// batchWith is Batch on an explicit context: the fan-out pool is a
// WithContext view, so cancellation stops unstarted groups and chunks.
// BatchCtx (the only cancellable caller) discards the partial output
// when ctx is done.
func batchWith(ctx context.Context, e *Engine, alg Algorithm, pairs [][2]int, workers int) []PairResult {
	// workers < 1 shares the engine's own pool, so concurrent batches
	// (a serving plane's steady state) stay inside one pool-wide
	// Parallelism bound instead of stacking a fresh pool per call; an
	// explicit workers count still gets a dedicated pool.
	pool := e.pool
	if workers >= 1 {
		pool = parallel.NewPool(workers)
	}
	pool = pool.WithContext(ctx)
	if st := alg.row(); st.filters && st.depth(e) < e.opt.Steps {
		e.pools() // build the shared filters once, before the fan-out
	}
	out := make([]PairResult, len(pairs))
	// Group valid pairs by source, preserving first-appearance order.
	groups := make(map[int][]int)
	var sources []int
	for i, p := range pairs {
		u, v := p[0], p[1]
		out[i] = PairResult{U: u, V: v}
		if err := e.checkVertex(u); err != nil {
			out[i].Err = err
			continue
		}
		if err := e.checkVertex(v); err != nil {
			out[i].Err = err
			continue
		}
		if _, ok := groups[u]; !ok {
			sources = append(sources, u)
		}
		groups[u] = append(groups[u], i)
	}
	// One task per source group. Inner kernels share the same pool: its
	// helper tokens are pool-wide, so the two fan-out levels never
	// multiply into workers² goroutines.
	pool.For(len(sources), func(gi int) {
		idx := groups[sources[gi]]
		candidates := make([]int, len(idx))
		for j, i := range idx {
			candidates[j] = pairs[i][1]
		}
		vals := make([]float64, len(candidates))
		errs := make([]error, len(candidates))
		if err := e.singleSourceInto(pool, alg, sources[gi], candidates, vals, errs); err != nil {
			for _, i := range idx {
				out[i].Err = err
			}
			return
		}
		for j, i := range idx {
			out[i].Value = vals[j]
			out[i].Err = errs[j]
		}
	})
	return out
}
