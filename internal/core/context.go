package core

import (
	"context"

	"usimrank/internal/obs"
)

// Context-aware query wrappers. Each runs the same deterministic kernel
// as its plain counterpart on a WithContext view of the engine's worker
// pool: when ctx is cancelled, the pool stops claiming new sample
// chunks / candidate tasks, the partial outputs are discarded, and the
// wrapper returns ctx.Err(). A query that completes before the deadline
// returns a value bit-identical to the plain call — cancellation can
// only abort a query, never perturb its result.
//
// Granularity: cancellation is checked between pool jobs (Monte Carlo
// sample chunks, SR-SP propagations, per-candidate kernel tasks). The
// exact-row dynamic programming inside one vertex is not interruptible,
// so a deadline may overshoot by roughly one chunk or one row
// computation.

// ComputeCtx is Compute with cancellation: long Monte Carlo or SR-SP
// work is abandoned once ctx is done, instead of burning
// goroutine-seconds on a result nobody will read.
func (e *Engine) ComputeCtx(ctx context.Context, alg Algorithm, u, v int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sp := obs.SpanFromContext(ctx).Start("kernel_pair")
	sp.Add("walks", e.pairWalks(alg))
	s, err := e.computeWith(e.pool.WithContext(ctx), alg, u, v)
	sp.Error(err)
	sp.End()
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s, nil
}

// SingleSourceCtx is SingleSource with cancellation.
func (e *Engine) SingleSourceCtx(ctx context.Context, alg Algorithm, u int) ([]float64, error) {
	return e.SingleSourceAgainstCtx(ctx, alg, u, e.allCandidates())
}

// SingleSourceAgainstCtx is SingleSourceAgainst with cancellation.
func (e *Engine) SingleSourceAgainstCtx(ctx context.Context, alg Algorithm, u int, candidates []int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.SpanFromContext(ctx).Start("kernel_single_source")
	sp.Add("walks", e.singleSourceWalks(alg, len(candidates)))
	sp.Add("candidates", int64(len(candidates)))
	out, err := e.singleSourceWith(e.pool.WithContext(ctx), alg, u, candidates)
	sp.Error(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchCtx is Batch with cancellation: once ctx is done, unstarted
// source groups and sample chunks are skipped and the call returns
// ctx.Err() instead of partial results.
func BatchCtx(ctx context.Context, e *Engine, alg Algorithm, pairs [][2]int, workers int) ([]PairResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.SpanFromContext(ctx).Start("kernel_batch")
	sp.Add("pairs", int64(len(pairs)))
	out := batchWith(ctx, e, alg, pairs, workers)
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WarmFilters eagerly builds the SR-SP filter-vector pools (normally
// built lazily on the first SR-SP query), and on an ApplyUpdates
// successor re-samples every filter vertex the updates invalidated.
// Serving planes call it while preparing an engine off the request path
// — e.g. before hot-swapping a freshly loaded graph — so the first
// query after the swap does not pay the whole offline phase.
func (e *Engine) WarmFilters() {
	fu, fv := e.pools()
	fu.Materialize(e.pool)
	fv.Materialize(e.pool)
}
