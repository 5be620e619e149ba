package core

import (
	"fmt"

	"usimrank/internal/matrix"
	"usimrank/internal/parallel"
	"usimrank/internal/speedup"
)

// SingleSource computes s(u, v) for every vertex v of the graph with
// the selected algorithm, doing the u-side work exactly once:
//
//   - Baseline, Sampling, TwoPhase, SamplingV2 (Eq. 15's kernel): u's
//     exact rows to the strategy's depth and u's walk grids, each once;
//     every candidate's rows are dotted against u's, and its walks are
//     drawn into pooled grids and counted against u's, allocation-free
//     in the sampled tail. SamplingV2 draws with the v2 Plan, the others
//     with mc.SampleGrid.
//   - SRSP: u's counting tables are propagated once and dotted against
//     one propagation per candidate.
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
	return st.source(e, p, st, u, candidates, out, errs)
}

// twoPhaseKernel is the single-source kernel of Eq. 15, twoPhaseWith's
// arithmetic per candidate: u's exact rows to st's depth l and, when
// the tail is sampled, u's walk grids (sampleSide), each once; per
// candidate one prefix dot and one walk replay (candidateGrid) against
// them. At l = −1 it reads no exact row. The serial candidate loop
// hands no closure to the pool, so with a plan (Sampling-v2) and a
// warmed engine the kernel is allocation-free at Parallelism 1.
//
// Each side drawn without a plan — u's u-side stream and every
// candidate's v-side stream, which Sampling and SR-TS share — goes
// through the engine's walk memo (walkmemo.go) when the query's
// 1 + len(candidates) sides fit it: a side requested before keeps its
// grids, and on a later query, on this generation or one derived by up
// to memoGenerations update batches, every chunk none of whose walks
// left a changed row is reused instead of re-drawn. A query that does
// not fit draws every chunk into pooled scratch, through the same
// per-chunk loop. Either way the answer is bit-identical to a fresh
// engine's.
func (e *Engine) twoPhaseKernel(p *parallel.Pool, st *strategy, u int, candidates []int, out []float64, errs []error) error {
	n, l := e.opt.Steps, st.depth(e)
	var ru []matrix.Vec
	if l >= 0 {
		var err error
		if ru, err = e.exactRows(u, l); err != nil {
			return err
		}
	}
	var s *v2scratch
	var memo *walkMemo
	if l < n {
		plan := st.tailPlan(e)
		if plan == nil {
			memo = e.memoFor(len(candidates))
		}
		s = e.v2pool.Get()
		defer e.release(s)
		k := sideKey{u, saltWalkU}
		sd := memo.plan(e, k)
		sd.plan = plan
		e.sampleSide(p, s, sd, u, saltWalkU)
		memo.store(e, p, k, s.side, s.gridU)
	}
	if p.Workers() <= 1 {
		for i := 0; i < len(candidates) && p.Err() == nil; i++ {
			if score, err := e.sourceCandidate(p, memo, ru, l, s, s, candidates[i]); err != nil {
				errs[i] = err
			} else {
				out[i] = score
			}
		}
		return nil
	}
	// On a cancelled pool view the source grids may be incomplete, but
	// then the candidate fan-out below runs no tasks either; callers of
	// the Ctx query shapes discard the partial output.
	p.For(len(candidates), func(i int) {
		var w *v2scratch
		if l < n {
			w = e.v2pool.Get()
			defer e.release(w)
		}
		if score, err := e.sourceCandidate(p, memo, ru, l, s, w, candidates[i]); err != nil {
			errs[i] = err
		} else {
			out[i] = score
		}
	})
	return nil
}

// sourceCandidate is one candidate v of twoPhaseKernel: the exact
// prefix m(k)(u,v) for k ≤ l from u's rows ru and v's, and, when l <
// Steps, v's v-side walks drawn as u's side in s was (through memo when
// they have no plan) with w's scratch and counted against s's grids.
func (e *Engine) sourceCandidate(p *parallel.Pool, memo *walkMemo, ru []matrix.Vec, l int, s, w *v2scratch, v int) (float64, error) {
	var rv []matrix.Vec
	if l >= 0 {
		var err error
		if rv, err = e.exactRows(v, l); err != nil {
			return 0, err
		}
	}
	n := e.opt.Steps
	if l >= n {
		exact := make([]float64, l+1)
		for k := range exact {
			exact[k] = ru[k].Dot(rv[k])
		}
		return Combine(exact, e.opt.C, n), nil
	}
	k := sideKey{v, saltWalkV}
	sd := memo.plan(e, k)
	sd.plan = s.side.plan
	m := e.candidateGrid(s, w, &sd, v)
	memo.store(e, p, k, sd, w.gridV)
	// The exact prefix overwrites m[0..l], as in srspPair: Eq. 15 reads
	// m[i] as exact for i ≤ l and as the sampled estimate above.
	for i := 0; i <= l; i++ {
		m[i] = ru[i].Dot(rv[i])
	}
	return CombineTwoPhase(m, m, e.opt.C, l, n), nil
}

// srspKernel: u's exact prefix rows and u's counting-table propagation,
// each once; per candidate one prefix dot and one propagation into a
// pooled scratch. Identical arithmetic to SRSP(u, v).
func (e *Engine) srspKernel(p *parallel.Pool, st *strategy, u int, candidates []int, out []float64, errs []error) error {
	n, l := e.opt.Steps, st.depth(e)
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
