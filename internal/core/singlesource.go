package core

import (
	"fmt"

	"usimrank/internal/matrix"
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/speedup"
)

// SingleSource computes s(u, v) for every vertex v of the graph with
// the selected algorithm, doing the u-side work exactly once:
//
//   - Baseline: u's exact transition rows are computed once and dotted
//     against every candidate's (cached) rows.
//   - Sampling: u's N walks are sampled once per chunk and replayed
//     against every candidate's walks.
//   - TwoPhase: u's exact prefix rows and u's walk grids, each once;
//     every candidate's walks are drawn into pooled grids and counted
//     against them, allocation-free in the sampled tail.
//   - SRSP: u's counting tables are propagated once and dotted against
//     one propagation per candidate.
//   - SamplingV2: the same walk-grid driver as TwoPhase's tail, with
//     the v2 Plan as the sampler: u's lockstep walk grids are drawn
//     once and every candidate's walks are counted against them,
//     allocation-free on a warmed engine.
//
// Every score is bit-identical to the pairwise Compute(alg, u, v) —
// per-side walk streams and deterministic work splitting guarantee it —
// so callers can mix query shapes freely. The candidate work fans out
// over the engine's worker pool; results are independent of
// Parallelism.
func (e *Engine) SingleSource(alg Algorithm, u int) ([]float64, error) {
	return e.SingleSourceAgainst(alg, u, e.allCandidates())
}

// SingleSourceAgainst is SingleSource restricted to an explicit
// candidate set: out[i] = s(u, candidates[i]). Candidates may repeat
// and may include u itself.
func (e *Engine) SingleSourceAgainst(alg Algorithm, u int, candidates []int) ([]float64, error) {
	return e.singleSourceWith(e.pool, alg, u, candidates)
}

func (e *Engine) singleSourceWith(p *parallel.Pool, alg Algorithm, u int, candidates []int) ([]float64, error) {
	out := make([]float64, len(candidates))
	if err := e.singleSourceChecked(p, alg, u, candidates, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SingleSourceAgainstInto is SingleSourceAgainst writing into a
// caller-provided buffer (len(out) must equal len(candidates)) — the
// form for callers that reuse result buffers across queries. For the
// sampling strategies nothing else is allocated either: on a warmed
// engine the whole AlgSamplingV2 path is allocation-free, the property
// the allocation regression gate pins. Exact-row strategies still
// allocate internally (rows, an error slot per candidate).
func (e *Engine) SingleSourceAgainstInto(alg Algorithm, u int, candidates []int, out []float64) error {
	if len(out) != len(candidates) {
		return fmt.Errorf("core: out length %d != candidate count %d", len(out), len(candidates))
	}
	return e.singleSourceChecked(e.pool, alg, u, candidates, out)
}

// singleSourceChecked runs singleSourceInto and returns its first failure,
// the u-side one or a candidate's. Only kernels that fetch exact rows
// per candidate can fail per candidate, so only they get error slots;
// the sampling kernels never touch errs and allocate nothing here.
func (e *Engine) singleSourceChecked(p *parallel.Pool, alg Algorithm, u int, candidates []int, out []float64) error {
	var errs []error
	if alg.row().depth(e) >= 0 {
		errs = make([]error, len(candidates))
	}
	if err := e.singleSourceInto(p, alg, u, candidates, out, errs); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// singleSourceInto runs one single-source kernel, writing scores to
// out[i] and per-candidate failures to errs[i] (both len(candidates)).
// A returned error means the u-side preparation failed and no candidate
// was scored. Candidate tasks fan out on p and write only their own
// slots, so results never depend on scheduling.
func (e *Engine) singleSourceInto(p *parallel.Pool, alg Algorithm, u int, candidates []int, out []float64, errs []error) error {
	if err := e.checkVertex(u); err != nil {
		return err
	}
	for _, v := range candidates {
		if err := e.checkVertex(v); err != nil {
			return err
		}
	}
	st, err := strategyFor(alg)
	if err != nil {
		return err
	}
	if len(candidates) == 0 {
		return nil // nothing to score; skip the u-side preparation too
	}
	return st.source(e, p, u, candidates, out, errs)
}

// baselineKernel: exact rows of u once, one row lookup + dot per
// candidate. Identical arithmetic to Baseline(u, v).
func (e *Engine) baselineKernel(p *parallel.Pool, u int, candidates []int, out []float64, errs []error) error {
	n := e.opt.Steps
	ru, err := e.exactRows(u, n)
	if err != nil {
		return err
	}
	p.For(len(candidates), func(i int) {
		rv, err := e.exactRows(candidates[i], n)
		if err != nil {
			errs[i] = err
			return
		}
		m := make([]float64, n+1)
		for k := 0; k <= n; k++ {
			m[k] = ru[k].Dot(rv[k])
		}
		out[i] = Combine(m, e.opt.C, n)
	})
	return nil
}

// sourceWalks samples the source's walk chunks once, fanned out over p.
// The result is shared read-only by every candidate task.
func (e *Engine) sourceWalks(p *parallel.Pool, u int) []*mc.Walks {
	cu := e.walkChunks(u, saltWalkU)
	walks := make([]*mc.Walks, len(cu))
	p.For(len(cu), func(ci int) {
		walks[ci] = mc.Sample(e.rev, u, e.opt.Steps, cu[ci].Len(), rng.New(cu[ci].Seed))
		e.kc.walks.Add(uint64(cu[ci].Len()))
	})
	return walks
}

// candidateMeeting samples one candidate's walk chunks and replays them
// against the source's pre-sampled walks, returning the merged m̂(k)
// estimate. The per-chunk integer counts are summed in chunk order —
// exactly the pairwise merge — so the estimate is bit-identical to
// MeetingSampled(u, v).
func (e *Engine) candidateMeeting(walksU []*mc.Walks, v int) []float64 {
	cv := e.walkChunks(v, saltWalkV)
	counts := make([][]int, len(cv))
	for ci := range cv {
		wv := mc.Sample(e.rev, v, e.opt.Steps, cv[ci].Len(), rng.New(cv[ci].Seed))
		counts[ci] = mc.MeetingCounts(walksU[ci], wv)
	}
	e.kc.walks.Add(uint64(e.opt.N)) // the chunks partition exactly N walks
	return e.mergeMeetingCounts(counts)
}

// samplingKernel: u's walks sampled once per chunk, replayed against
// every candidate's walks. Identical arithmetic to Sampling(u, v).
func (e *Engine) samplingKernel(p *parallel.Pool, u int, candidates []int, out []float64, errs []error) error {
	walksU := e.sourceWalks(p, u)
	p.For(len(candidates), func(i int) {
		out[i] = Combine(e.candidateMeeting(walksU, candidates[i]), e.opt.C, e.opt.Steps)
	})
	return nil
}

// twoPhaseKernel: u's exact prefix rows and u's walk grids, each once
// (sampleSide); per candidate one prefix dot and one walk replay on its
// own pooled scratch (candidateGrid). Identical arithmetic to
// TwoPhase(u, v).
//
// Each side — u's u-side stream and every candidate's v-side stream —
// goes through the engine's walk memo (walkmemo.go) when the query's
// 1 + len(candidates) sides fit it: a side requested before keeps its
// grids, and on a later query, on this generation or one derived by up
// to memoGenerations update batches, every chunk none of whose walks
// left a changed row is reused instead of re-drawn. A query that does
// not fit draws every chunk into pooled scratch, through the same
// per-chunk loop. Either way the answer is bit-identical to a fresh
// engine's.
func (e *Engine) twoPhaseKernel(p *parallel.Pool, u int, candidates []int, out []float64, errs []error) error {
	n := e.opt.Steps
	l := e.splitDepth()
	ru, err := e.exactRows(u, l)
	if err != nil {
		return err
	}
	memo := e.memoFor(len(candidates))
	var s *v2scratch
	if l < n {
		s = e.v2pool.Get()
		defer e.release(s)
		k := sideKey{u, saltWalkU}
		e.sampleSide(p, s, memo.plan(e, k), u, saltWalkU)
		memo.store(e, p, k, s.side, s.gridU)
	}
	// On a cancelled pool view the source grids may be incomplete, but
	// then the candidate fan-out below runs no tasks either; callers of
	// the Ctx query shapes discard the partial output.
	p.For(len(candidates), func(i int) {
		rv, err := e.exactRows(candidates[i], l)
		if err != nil {
			errs[i] = err
			return
		}
		exact := make([]float64, l+1)
		for k := 0; k <= l; k++ {
			exact[k] = ru[k].Dot(rv[k])
		}
		if l >= n {
			out[i] = Combine(exact, e.opt.C, n)
			return
		}
		w := e.v2pool.Get()
		defer e.release(w)
		k := sideKey{candidates[i], saltWalkV}
		sd := memo.plan(e, k)
		out[i] = CombineTwoPhase(exact, e.candidateGrid(s, w, &sd, candidates[i]), e.opt.C, e.opt.L, n)
		memo.store(e, p, k, sd, w.gridV)
	})
	return nil
}

// srspKernel: u's exact prefix rows and u's counting-table propagation,
// each once; per candidate one prefix dot and one propagation into a
// pooled scratch. Identical arithmetic to SRSP(u, v).
func (e *Engine) srspKernel(p *parallel.Pool, u int, candidates []int, out []float64, errs []error) error {
	n := e.opt.Steps
	l := e.splitDepth()
	ru, err := e.exactRows(u, l)
	if err != nil {
		return err
	}
	s := e.v2pool.Get()
	defer e.release(s)
	var fv *speedup.Filters
	if l < n {
		var fu *speedup.Filters
		fu, fv = e.pools()
		speedup.PropagateInto(&s.tab, &s.prop, fu, u, n)
	}
	p.For(len(candidates), func(i int) {
		rv, err := e.exactRows(candidates[i], l)
		if err != nil {
			errs[i] = err
			return
		}
		w := e.v2pool.Get()
		defer e.release(w)
		if l < n {
			speedup.PropagateInto(&w.tab, &w.prop, fv, candidates[i], n)
		}
		out[i] = e.srspPair(ru, rv, &s.tab, &w.tab, l, w)
	})
	return nil
}

// srspPair combines one (u, v) pair from prepared per-vertex SRSP state
// — exact prefix rows plus (when l < Steps) propagated counting tables —
// with w.m as the estimate buffer. It is the shared tail of the pairwise
// SRSP path, the single-source kernel, and the SRSPMatrix sweep, so the
// three are bit-identical by construction.
func (e *Engine) srspPair(exactU, exactV []matrix.Vec, tu, tv *speedup.Tables, l int, w *v2scratch) float64 {
	n := e.opt.Steps
	m := grow(w.m, n+1)
	w.m = m
	if l < n {
		speedup.MeetingEstimatesInto(m, tu, tv)
	}
	// The exact prefix overwrites m[0..l]: Eq. 15 reads m[k] as exact
	// for k ≤ l and as the sampled estimate above.
	for k := 0; k <= l; k++ {
		m[k] = exactU[k].Dot(exactV[k])
	}
	if l >= n {
		return Combine(m, e.opt.C, n)
	}
	return CombineTwoPhase(m, m, e.opt.C, l, n)
}
