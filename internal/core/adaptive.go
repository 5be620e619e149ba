package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"usimrank/internal/mc"
	"usimrank/internal/obs"
	"usimrank/internal/parallel"
	"usimrank/internal/stats"
)

// Adaptive (ε, δ) queries: instead of a fixed N walk pairs, the sampled
// strategies draw the v2 lockstep walks (Plan.Sample, through the walk
// driver in walkgrid.go) in geometric rounds (N₁, 2N₁, …) and stop as
// soon as a confidence radius drops below the requested ε —
// the paper's Eq. 14 accuracy analysis turned from a test-suite artifact
// into a request parameter. Per round the estimator folds each walk
// pair into a single score
//
//	X_i = Σ_k coef[k] · 1[pair i meets at step k],
//
// whose mean is exactly the Eq. 12 / Eq. 15 combination of the sampled
// meeting frequencies: coef[k] = (1−c)·cᵏ on the sampled steps, cⁿ at
// the horizon, and 0 on an exact prefix (TwoPhase/SRSP compute k ≤ l
// exactly and sample only the tail, so their X_i ranges over
// [0, c^(l+1)] — the Corollary 1 variance shrinkage, which makes their
// adaptive queries converge fastest). The radius is the tighter of the
// empirical-Bernstein and Hoeffding bounds at a per-round confidence
// share δ/rounds (union bound over the whole schedule), so
// P(|estimate − E| > radius at any committed round) ≤ δ.
//
// Determinism: rounds reuse the walk driver's fixed-size chunks —
// per-side streams seeded by (engine seed, vertex, side), chunk seeds
// drawn in order — so round r's walk set is a prefix of round r+1's:
// each round lays the source side out for its walk total (layoutSide)
// and draws only the new chunks, which are all its candidates read.
// Per-chunk (ΣX, ΣX²) moments merge in chunk order.
// At a fixed option set the whole trajectory (every round's estimate,
// radius, and the stopping point) is bit-stable across Parallelism
// values and across the pair/source query shapes.
//
// Cancellation degrades gracefully instead of failing: only completed
// rounds commit an estimate, a round cut short by ctx is discarded
// whole (a partially sampled round would bias the mean), and if at
// least one round committed the query returns its best-so-far estimate
// with Partial=true and a nil error. Zero committed rounds surface
// ctx's error as usual. The loop also stops before a round it cannot
// finish — when the remaining deadline is under 2× the previous
// round's duration, since each round doubles the walks — so
// deadline-pressured queries return a committed interval instead of
// burning the budget on a round that will be thrown away.
//
// All sampled strategies share the v2 walks here: SR-SP's filter
// bit-vectors amortise over fixed sweeps but cannot extend a committed
// walk set round over round, so AlgSRSP's adaptive tail runs the same
// lockstep walks as AlgTwoPhase's.

// AdaptiveDefaultDelta is the confidence parameter assumed when a
// request sets eps but leaves delta zero.
const AdaptiveDefaultDelta = 0.05

const (
	// adaptiveMinWalks is the default first-round walk-pair budget:
	// two chunks, so even the first round exercises the chunk merge.
	adaptiveMinWalks = 2 * parallel.DefaultChunkSize
	// adaptiveWalkCeiling caps the walk budget of one adaptive query no
	// matter how tight the requested ε is.
	adaptiveWalkCeiling = 1 << 20
	// adaptiveCapDeltaShare sizes the default walk cap: the cap is the
	// Hoeffding budget at confidence δ/adaptiveCapDeltaShare, which
	// dominates the per-round share δ/len(totals) for every schedule the
	// doubling can produce (≤ 13 rounds from 256 to the ceiling) — so a
	// query reaching the cap has converged under the worst-case bound.
	adaptiveCapDeltaShare = 16
)

// AdaptiveOptions parameterises an adaptive query: stop as soon as the
// confidence radius is ≤ Eps, wrong with probability at most Delta.
type AdaptiveOptions struct {
	// Eps is the requested confidence radius. Must be > 0.
	Eps float64
	// Delta is the allowed failure probability in (0, 1);
	// 0 selects AdaptiveDefaultDelta.
	Delta float64
	// MinWalks is the first-round walk-pair budget (0: two chunks).
	// Rounds double from here; the value is rounded up to whole chunks.
	MinWalks int
	// MaxWalks caps the walk pairs per estimate (0: the Hoeffding
	// budget for (Eps, Delta), itself capped at 2²⁰). The cap is what
	// bounds a query whose variance keeps the Bernstein radius wide.
	MaxWalks int
}

func (ao AdaptiveOptions) validate() error {
	if !(ao.Eps > 0) || math.IsInf(ao.Eps, 0) {
		return fmt.Errorf("core: adaptive eps %v outside (0, +Inf)", ao.Eps)
	}
	if ao.Delta != 0 && !(ao.Delta > 0 && ao.Delta < 1) {
		return fmt.Errorf("core: adaptive delta %v outside (0, 1)", ao.Delta)
	}
	if ao.MinWalks < 0 || ao.MaxWalks < 0 {
		return fmt.Errorf("core: adaptive walk budgets must be non-negative")
	}
	if ao.MaxWalks > 0 && ao.MinWalks > ao.MaxWalks {
		return fmt.Errorf("core: adaptive min walks %d > max walks %d", ao.MinWalks, ao.MaxWalks)
	}
	return nil
}

// AdaptiveResult reports an adaptive query's estimate together with how
// hard the stopping rule had to work for it.
type AdaptiveResult struct {
	// Score is the pairwise estimate (pair shape only).
	Score float64
	// Scores are the per-candidate estimates (source shapes only).
	Scores []float64
	// Radius is the confidence radius of the estimate at the last
	// committed round — the maximum over candidates for source shapes.
	// The true value lies within Radius of the estimate with
	// probability ≥ 1−δ. 0 for exact (baseline) queries.
	Radius float64
	// Walks is the number of walk-pair samples behind the estimate (per
	// candidate for source shapes) — compare against Options.N for the
	// fixed-budget equivalent.
	Walks int64
	// Rounds is the number of committed sampling rounds.
	Rounds int
	// Converged reports that the stopping rule was satisfied: Radius ≤
	// the requested Eps.
	Converged bool
	// Partial reports that a deadline stopped the query before it
	// converged or exhausted its walk budget; Score/Scores then carry
	// the best-so-far estimate of the last committed round.
	Partial bool
}

// adaptivePlan is one adaptive query's resolved configuration.
type adaptivePlan struct {
	l      int       // exact-prefix depth; -1 when fully sampled
	coef   []float64 // per-step weight of the sampled series; nil when fully exact
	b      float64   // Σ coef: the range of one walk pair's score X_i
	totals []int     // cumulative walk-pair target per round
	deltaR float64   // per-round confidence share (union bound over totals)
	eps    float64
	delta  float64
}

// exact reports that the algorithm needs no sampling at this option
// set (baseline, or an exact prefix covering every step).
func (ap adaptivePlan) exact() bool { return len(ap.totals) == 0 }

// planAdaptive resolves the coefficients, walk schedule, and confidence
// shares of one adaptive query under st's exact prefix.
func (e *Engine) planAdaptive(st *strategy, ao AdaptiveOptions) (adaptivePlan, error) {
	if err := ao.validate(); err != nil {
		return adaptivePlan{}, err
	}
	ap := adaptivePlan{l: st.depth(e), eps: ao.Eps, delta: ao.Delta}
	if ap.delta == 0 {
		ap.delta = AdaptiveDefaultDelta
	}
	n := e.opt.Steps
	if ap.l >= n {
		return ap, nil // fully exact: nothing to sample
	}
	ap.coef = make([]float64, n+1)
	c := e.opt.C
	ck := 1.0
	for k := 0; k < n; k++ {
		if k > ap.l {
			ap.coef[k] = (1 - c) * ck
		}
		ck *= c
	}
	ap.coef[n] = ck
	for _, w := range ap.coef {
		ap.b += w // ≈ 1 fully sampled, c^(l+1) with an exact prefix
	}
	minW := ao.MinWalks
	if minW == 0 {
		minW = adaptiveMinWalks
	}
	maxW := ao.MaxWalks
	if maxW == 0 {
		maxW = stats.HoeffdingSamples(ap.b, ap.eps, ap.delta/adaptiveCapDeltaShare)
		if maxW > adaptiveWalkCeiling {
			maxW = adaptiveWalkCeiling
		}
	}
	ap.totals = adaptiveRounds(minW, maxW)
	ap.deltaR = ap.delta / float64(len(ap.totals))
	return ap, nil
}

// adaptiveRounds builds the chunk-aligned doubling schedule from minW
// up to (exactly) maxW walk pairs.
func adaptiveRounds(minW, maxW int) []int {
	align := func(n int) int {
		const cs = parallel.DefaultChunkSize
		if n < cs {
			return cs
		}
		return (n + cs - 1) / cs * cs
	}
	minW, maxW = align(minW), align(maxW)
	if maxW < minW {
		maxW = minW
	}
	var totals []int
	for t := minW; t < maxW; t *= 2 {
		totals = append(totals, t)
	}
	return append(totals, maxW)
}

// adaptiveInterval turns running moments over n samples in [0, b] into
// the committed (mean, radius) pair: the tighter of the empirical-
// Bernstein and Hoeffding radii at the round's confidence share.
func adaptiveInterval(sum, sumsq, b float64, n int, deltaR float64) (mean, radius float64) {
	fn := float64(n)
	mean = sum / fn
	variance := 0.0
	if n > 1 {
		variance = (sumsq - fn*mean*mean) / (fn - 1)
	}
	radius = math.Min(
		stats.BernsteinRadius(variance, b, n, deltaR),
		stats.HoeffdingRadius(b, n, deltaR),
	)
	return mean, radius
}

// exactPrefix evaluates the exact part of the Eq. 15 split,
// Σ_{k=0}^{l} (1−c)·cᵏ·m(k)(u,v), for an exact-prefix depth l < Steps.
// l = −1 (fully sampled) contributes nothing.
func (e *Engine) exactPrefix(u, v, l int) (float64, error) {
	if l < 0 {
		return 0, nil
	}
	m, err := e.MeetingExact(u, v, l)
	if err != nil {
		return 0, err
	}
	part, ck := 0.0, 1.0
	for k := 0; k <= l; k++ {
		part += (1 - e.opt.C) * ck * m[k]
		ck *= e.opt.C
	}
	return part, nil
}

// adaptiveCandidate folds the new chunks [lo, hi) of round target t
// into one candidate's score moments, returning the round's (ΣX, ΣX²).
// s carries the shared source grid (read-only); w is private scratch.
type adaptiveCandidate func(i, lo, hi, t int, s, w *v2scratch) (sum, sumsq float64)

// adaptiveSweep is the shared round loop of every adaptive query shape:
// the source's walk stream grows prefix-stably round over round, cand
// scores each unconverged candidate against the new chunks, and the
// loop commits (estimate, radius) snapshots until every candidate's
// radius is ≤ ε, the walk budget is spent, or the deadline intervenes.
// Individually converged candidates freeze — their committed estimate
// and radius stand — so one slow candidate never forces sampling work
// on the rest of the sweep.
func (e *Engine) adaptiveSweep(ctx context.Context, p *parallel.Pool, u int, prefix []float64, ap adaptivePlan, cand adaptiveCandidate) (AdaptiveResult, error) {
	nc := len(prefix)
	scores := make([]float64, nc)
	res := AdaptiveResult{Scores: scores}
	if nc == 0 {
		res.Converged = true
		return res, nil
	}
	radii := make([]float64, nc)
	sums := make([]float64, nc)
	sumsqs := make([]float64, nc)
	conv := make([]bool, nc)
	sd := sideDraw{plan: e.v2Plan()}
	s := e.v2pool.Get()
	defer e.release(s)
	prevCh := 0
	deadline, hasDeadline := ctx.Deadline()
	var lastRound time.Duration
	for _, t := range ap.totals {
		if p.Err() != nil {
			break
		}
		// Don't start a round the deadline cannot fit: an aborted round
		// is discarded whole, so its walks would be pure waste. The
		// schedule doubles the walks per round, so budget the next round
		// at twice the last one.
		if res.Rounds > 0 && hasDeadline && time.Until(deadline) < 2*lastRound {
			break
		}
		start := time.Now()
		// Laying the side out again is cheap (one seed draw per chunk)
		// and prefix-stable: totals are whole chunks, so the first prevCh
		// chunks are the earlier rounds', and only the new ones are drawn.
		e.layoutSide(s, sd, u, saltWalkU, t)
		e.drawSide(p, s, u, prevCh)
		if p.Err() != nil {
			break
		}
		lo, nch := prevCh, len(s.cu)
		if p.Workers() <= 1 {
			for i := 0; i < nc && p.Err() == nil; i++ {
				if conv[i] {
					continue
				}
				a, q := cand(i, lo, nch, t, s, s)
				sums[i] += a
				sumsqs[i] += q
			}
		} else {
			p.For(nc, func(i int) {
				if conv[i] {
					return
				}
				w := e.v2pool.Get()
				defer e.release(w)
				a, q := cand(i, lo, nch, t, s, w)
				sums[i] += a
				sumsqs[i] += q
			})
		}
		if p.Err() != nil {
			break // round incomplete: discard, keep the last committed snapshot
		}
		maxR := 0.0
		for i := 0; i < nc; i++ {
			if !conv[i] {
				mean, radius := adaptiveInterval(sums[i], sumsqs[i], ap.b, t, ap.deltaR)
				scores[i] = prefix[i] + mean
				radii[i] = radius
				if radius <= ap.eps {
					conv[i] = true
				}
			}
			if radii[i] > maxR {
				maxR = radii[i]
			}
		}
		res.Radius = maxR
		res.Walks = int64(t)
		res.Rounds++
		prevCh = nch
		lastRound = time.Since(start)
		if maxR <= ap.eps {
			res.Converged = true
			break
		}
	}
	if res.Rounds == 0 {
		// Nothing committed: surface the cancellation as an error, the
		// same contract as the non-adaptive Ctx shapes. (The first round
		// always starts, so zero rounds implies a cancelled pool.)
		if err := p.Err(); err != nil {
			return AdaptiveResult{}, err
		}
		if err := ctx.Err(); err != nil {
			return AdaptiveResult{}, err
		}
	}
	// Stopped before converging and before the budget ran out: a
	// deadline cut the query short — a partial result, not a failure.
	if !res.Converged && res.Rounds < len(ap.totals) {
		res.Partial = true
	}
	return res, nil
}

// sampledCandidate returns the adaptiveCandidate that draws each
// candidate's own v2 walks, as the source's side says (drawChunk),
// against the shared source grid — chunk seeds match the pairwise
// shape's, so a sweep's per-candidate moments are bit-identical to nc
// independent pair queries.
func (e *Engine) sampledCandidate(candidates []int, ap adaptivePlan) adaptiveCandidate {
	n := e.opt.Steps
	return func(i, lo, hi, t int, s, w *v2scratch) (float64, float64) {
		v := candidates[i]
		w.r.Reseed(e.sideSeed(v, saltWalkV))
		w.cv = parallel.AppendChunks(w.cv[:0], t, parallel.DefaultChunkSize, &w.r)
		var rs, rq float64
		for ci := lo; ci < hi; ci++ {
			c := w.cv[ci]
			W := c.Len()
			w.posV = grow(w.posV, (n+1)*W)
			grid := e.drawChunk(w, &s.side, v, ci, c, w.posV)
			w.xbuf = grow(w.xbuf, W)
			cs, cq := mc.AccumulateWeighted(s.posU[s.uoff[ci]:s.uoff[ci+1]], grid, n, W, ap.coef, w.xbuf)
			rs += cs
			rq += cq
		}
		return rs, rq
	}
}

// AdaptiveCompute is the pairwise adaptive query: ŝ(u,v) within
// ao.Eps at confidence 1−ao.Delta, using as few walk pairs as the
// stopping rule allows. Exact strategies (baseline, or an exact prefix
// covering every step) return the exact score with Radius 0.
func (e *Engine) AdaptiveCompute(alg Algorithm, u, v int, ao AdaptiveOptions) (AdaptiveResult, error) {
	return e.adaptivePair(context.Background(), e.pool, alg, u, v, ao)
}

// AdaptiveComputeCtx is AdaptiveCompute with graceful degradation: when
// ctx expires after at least one committed round, the best-so-far
// estimate returns with Partial=true instead of an error.
func (e *Engine) AdaptiveComputeCtx(ctx context.Context, alg Algorithm, u, v int, ao AdaptiveOptions) (AdaptiveResult, error) {
	if err := ctx.Err(); err != nil {
		return AdaptiveResult{}, err
	}
	sp := obs.SpanFromContext(ctx).Start("adaptive_pair")
	res, err := e.adaptivePair(ctx, e.pool.WithContext(ctx), alg, u, v, ao)
	noteAdaptiveSpan(sp, res, err)
	return res, err
}

// adaptivePair runs the pair as the one-candidate source query: the
// single-source kernels and the sweep score every candidate exactly as
// the pairwise shape would.
func (e *Engine) adaptivePair(ctx context.Context, p *parallel.Pool, alg Algorithm, u, v int, ao AdaptiveOptions) (AdaptiveResult, error) {
	res, err := e.adaptiveSource(ctx, p, alg, u, []int{v}, ao)
	if err != nil {
		return AdaptiveResult{}, err
	}
	res.Score, res.Scores = res.Scores[0], nil
	return res, nil
}

// AdaptiveSingleSource is the adaptive single-source sweep: every
// score of s(u, ·) within ao.Eps at confidence 1−ao.Delta, with
// individually converged candidates frozen out of later rounds.
func (e *Engine) AdaptiveSingleSource(alg Algorithm, u int, ao AdaptiveOptions) (AdaptiveResult, error) {
	return e.adaptiveSource(context.Background(), e.pool, alg, u, e.allCandidates(), ao)
}

// AdaptiveSingleSourceAgainstCtx restricts the adaptive sweep to an
// explicit candidate set: Scores[i] estimates s(u, candidates[i]).
func (e *Engine) AdaptiveSingleSourceAgainstCtx(ctx context.Context, alg Algorithm, u int, candidates []int, ao AdaptiveOptions) (AdaptiveResult, error) {
	if err := ctx.Err(); err != nil {
		return AdaptiveResult{}, err
	}
	sp := obs.SpanFromContext(ctx).Start("adaptive_single_source")
	sp.Add("candidates", int64(len(candidates)))
	res, err := e.adaptiveSource(ctx, e.pool.WithContext(ctx), alg, u, candidates, ao)
	noteAdaptiveSpan(sp, res, err)
	return res, err
}

func (e *Engine) adaptiveSource(ctx context.Context, p *parallel.Pool, alg Algorithm, u int, candidates []int, ao AdaptiveOptions) (AdaptiveResult, error) {
	if err := e.checkVertex(u); err != nil {
		return AdaptiveResult{}, err
	}
	for _, v := range candidates {
		if err := e.checkVertex(v); err != nil {
			return AdaptiveResult{}, err
		}
	}
	st, err := strategyFor(alg)
	if err != nil {
		return AdaptiveResult{}, err
	}
	ap, err := e.planAdaptive(st, ao)
	if err != nil {
		return AdaptiveResult{}, err
	}
	if ap.exact() {
		out, err := e.singleSourceWith(p, alg, u, candidates)
		if err != nil {
			return AdaptiveResult{}, err
		}
		if err := p.Err(); err != nil {
			return AdaptiveResult{}, err
		}
		return AdaptiveResult{Scores: out, Converged: true}, nil
	}
	prefix := make([]float64, len(candidates))
	if ap.l >= 0 {
		errs := make([]error, len(candidates))
		p.For(len(candidates), func(i int) {
			prefix[i], errs[i] = e.exactPrefix(u, candidates[i], ap.l)
		})
		if err := p.Err(); err != nil {
			return AdaptiveResult{}, err
		}
		for _, err := range errs {
			if err != nil {
				return AdaptiveResult{}, err
			}
		}
	}
	return e.adaptiveSweep(ctx, p, u, prefix, ap, e.sampledCandidate(candidates, ap))
}

// AdaptiveSingleSourceIndexedCtx is the adaptive form of the indexed
// single-source query: the source's residual walks grow in rounds while
// every candidate is scored by probing its precomputed occupancy rows,
// X_i = Σ_k coef[k]·occ_v(k)(pos_i(k)) ∈ [0, 1]. The stopping rule
// bounds the residual-sampling error relative to the index's stored
// v-side occupancies (the index's own build-time error is a separate,
// fixed quantity, exactly as in the non-adaptive indexed contract).
func (e *Engine) AdaptiveSingleSourceIndexedCtx(ctx context.Context, x SourceIndex, u int, ao AdaptiveOptions) (AdaptiveResult, error) {
	return e.AdaptiveSingleSourceIndexedAgainstCtx(ctx, x, u, e.allCandidates(), ao)
}

// AdaptiveSingleSourceIndexedAgainstCtx restricts the adaptive indexed
// sweep to an explicit candidate set.
func (e *Engine) AdaptiveSingleSourceIndexedAgainstCtx(ctx context.Context, x SourceIndex, u int, candidates []int, ao AdaptiveOptions) (AdaptiveResult, error) {
	if err := ctx.Err(); err != nil {
		return AdaptiveResult{}, err
	}
	sp := obs.SpanFromContext(ctx).Start("adaptive_indexed")
	sp.Add("candidates", int64(len(candidates)))
	res, err := e.adaptiveIndexed(ctx, e.pool.WithContext(ctx), x, u, candidates, ao)
	noteAdaptiveSpan(sp, res, err)
	return res, err
}

func (e *Engine) adaptiveIndexed(ctx context.Context, p *parallel.Pool, x SourceIndex, u int, candidates []int, ao AdaptiveOptions) (AdaptiveResult, error) {
	if err := e.CheckIndex(x); err != nil {
		return AdaptiveResult{}, err
	}
	if err := e.checkVertex(u); err != nil {
		return AdaptiveResult{}, err
	}
	for _, v := range candidates {
		if err := e.checkVertex(v); err != nil {
			return AdaptiveResult{}, err
		}
	}
	ap, err := e.planAdaptive(AlgIndexed.row(), ao)
	if err != nil {
		return AdaptiveResult{}, err
	}
	n := e.opt.Steps
	cand := func(i, lo, hi, t int, s, w *v2scratch) (float64, float64) {
		v := candidates[i]
		var rs, rq float64
		for ci := lo; ci < hi; ci++ {
			W := s.cu[ci].Len()
			grid := s.posU[s.uoff[ci]:s.uoff[ci+1]]
			w.xbuf = grow(w.xbuf, W)
			for ii := range w.xbuf[:W] {
				w.xbuf[ii] = 0
			}
			for k := 0; k <= n; k++ {
				ck := ap.coef[k]
				if ck == 0 {
					continue
				}
				row := x.Row(v, k)
				for ii, at := range grid[k*W : (k+1)*W] {
					if at >= 0 {
						w.xbuf[ii] += ck * row.At(at)
					}
				}
			}
			for _, xi := range w.xbuf[:W] {
				rs += xi
				rq += xi * xi
			}
		}
		return rs, rq
	}
	return e.adaptiveSweep(ctx, p, u, make([]float64, len(candidates)), ap, cand)
}

// allCandidates returns the full vertex set, the candidate list of the
// unrestricted single-source shapes.
func (e *Engine) allCandidates() []int {
	candidates := make([]int, e.g.NumVertices())
	for i := range candidates {
		candidates[i] = i
	}
	return candidates
}

// noteAdaptiveSpan records an adaptive query's outcome on its span.
func noteAdaptiveSpan(sp obs.Span, res AdaptiveResult, err error) {
	sp.Add("rounds", int64(res.Rounds))
	sp.Add("walks", res.Walks)
	if res.Partial {
		sp.Add("partial", 1)
	}
	if res.Converged {
		sp.Add("converged", 1)
	}
	sp.Error(err)
	sp.End()
}
