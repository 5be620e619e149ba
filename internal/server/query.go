package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"usimrank"
	"usimrank/internal/obs"
)

// Query is one validated v1 query: its shape, algorithm and operands,
// everything the serving pipeline needs to admit, coalesce and account
// it. The request types' Query methods build one — the single
// validator per shape that node handlers, coordinator handlers and
// subscriptions all run — so every plane rejects the same requests
// with the same bytes.
type Query struct {
	// Shape is "score", "source", "topk" or "batch"; Alg is the
	// canonical algorithm name ("indexed" for the index path). Both key
	// the per-shape metrics.
	Shape, Alg string

	algo    usimrank.Algorithm // unset when indexed
	indexed bool
	u, v, k int
	ofU     bool // topk: the k most similar to u (else the best pairs)
	// candidates restricts a source query (nil: every vertex); sources
	// restricts a pairs top-k; pairs is a batch's operand list.
	candidates []int
	sources    []int
	pairs      [][2]int
	eps, delta float64
	timeoutMs  int
	debug      bool
	// operands is the flight key's shape-specific component.
	operands string
}

// Query validates the request and returns its serving identity.
func (r *ScoreRequest) Query() (*Query, error) {
	algo, err := usimrank.ParseAlgorithm(r.Alg)
	if err != nil {
		return nil, err
	}
	if err := checkAccuracy(r.Eps, r.Delta); err != nil {
		return nil, err
	}
	return &Query{
		Shape: "score", Alg: algo.String(), algo: algo, u: r.U, v: r.V,
		eps: r.Eps, delta: r.Delta, timeoutMs: r.TimeoutMs, debug: r.Debug,
		operands: fmt.Sprintf("%d|%d", r.U, r.V),
	}, nil
}

// Query validates the request and returns its serving identity.
// "indexed" is accepted here and checked against the pinned engine
// later (see checkGraph): only an index-serving node can answer it.
func (r *SourceRequest) Query() (*Query, error) {
	q := &Query{
		Shape: "source", Alg: AlgIndexed, indexed: strings.EqualFold(r.Alg, AlgIndexed),
		u: r.U, candidates: r.Candidates,
		eps: r.Eps, delta: r.Delta, timeoutMs: r.TimeoutMs, debug: r.Debug,
	}
	if !q.indexed {
		algo, err := usimrank.ParseAlgorithm(r.Alg)
		if err != nil {
			return nil, fmt.Errorf(`%w (or "indexed" on an index-serving node)`, err)
		}
		q.algo, q.Alg = algo, algo.String()
	}
	if err := checkAccuracy(r.Eps, r.Delta); err != nil {
		return nil, err
	}
	// nil candidates (full sweep) and an explicit empty list are
	// different queries; keep their flight keys distinct.
	candKey := "all"
	if r.Candidates != nil {
		candKey = DigestInts(r.Candidates)
	}
	q.operands = fmt.Sprintf("%d|%s", r.U, candKey)
	return q, nil
}

// Query validates the request and returns its serving identity.
func (r *TopKRequest) Query() (*Query, error) {
	algo, err := usimrank.ParseAlgorithm(r.Alg)
	if err != nil {
		return nil, err
	}
	if r.K < 1 {
		return nil, fmt.Errorf("k = %d < 1", r.K)
	}
	if r.U != nil && r.Sources != nil {
		return nil, errors.New(`"sources" is only valid for pairs queries (omit "u")`)
	}
	if err := checkAccuracy(r.Eps, r.Delta); err != nil {
		return nil, err
	}
	q := &Query{
		Shape: "topk", Alg: algo.String(), algo: algo, k: r.K, sources: r.Sources,
		eps: r.Eps, delta: r.Delta, timeoutMs: r.TimeoutMs, debug: r.Debug,
	}
	switch {
	case r.U != nil:
		q.u, q.ofU = *r.U, true
		q.operands = fmt.Sprintf("u%d|k%d", *r.U, r.K)
	case r.Sources != nil:
		q.operands = fmt.Sprintf("pairs|k%d|s%s", r.K, DigestInts(r.Sources))
	default:
		q.operands = fmt.Sprintf("pairs|k%d", r.K)
	}
	return q, nil
}

// Query validates the request and returns its serving identity.
// Out-of-range pairs are not request errors: a batch is a bulk
// operation, and each bad pair fails alone in its result slot.
func (r *BatchRequest) Query() (*Query, error) {
	algo, err := usimrank.ParseAlgorithm(r.Alg)
	if err != nil {
		return nil, err
	}
	if len(r.Pairs) == 0 {
		return nil, errors.New("empty pairs")
	}
	flat := make([]int, 0, 2*len(r.Pairs))
	for _, p := range r.Pairs {
		flat = append(flat, p[0], p[1])
	}
	return &Query{
		Shape: "batch", Alg: algo.String(), algo: algo, pairs: r.Pairs,
		timeoutMs: r.TimeoutMs, debug: r.Debug, operands: DigestInts(flat),
	}, nil
}

// checkAccuracy validates an eps/delta accuracy target. eps == 0 (with
// delta == 0) selects the classic fixed-budget path.
func checkAccuracy(eps, delta float64) error {
	if eps < 0 {
		return fmt.Errorf("eps = %g < 0", eps)
	}
	if delta != 0 {
		if eps == 0 {
			return errors.New(`"delta" is only valid together with "eps"`)
		}
		if delta < 0 || delta >= 1 {
			return fmt.Errorf("delta = %g outside (0, 1)", delta)
		}
	}
	return nil
}

// flightKey is the query's coalescing key at graph generation gen —
// the one key format every plane shares, so a node's cold query, its
// subscription pushes and a coordinator's relay of the same query each
// coalesce exactly with their own kind. Beyond shape, algorithm and
// operands the key carries:
//
//   - the accuracy target: an eps-bearing query must never share a
//     flight with a full-budget one (different engine call, different
//     response shape), nor with one targeting a different (ε, δ); exact
//     bit patterns keep distinct float spellings distinct;
//   - the debug flag: a debug request must lead its own flight (so its
//     profile contains the compute spans), and a non-debug follower must
//     never receive a response computed under a debug leader;
//   - the effective deadline: the flight runs under the leader's
//     deadline, so only requests with the same budget may share one —
//     a follower with 30s left must not inherit a stranger's 1ms flight
//     and 504 spuriously.
func (q *Query) flightKey(gen uint64, timeout time.Duration) string {
	var accuracy, debug string
	if q.eps > 0 {
		accuracy = fmt.Sprintf("|e%x|d%x", math.Float64bits(q.eps), math.Float64bits(q.delta))
	}
	if q.debug {
		debug = "|dbg"
	}
	return fmt.Sprintf("%s|g%d|%s|%s%s%s|t%d", q.Shape, gen, q.Alg, q.operands, accuracy, debug, timeout.Milliseconds())
}

// vertexArgs is every vertex id the query names as a request-level
// operand (batch pairs are checked per pair by the engine).
func (q *Query) vertexArgs() []int {
	switch {
	case q.Shape == "score":
		return []int{q.u, q.v}
	case q.Shape == "source":
		return append([]int{q.u}, q.candidates...)
	case q.ofU:
		return []int{q.u}
	default:
		return q.sources
	}
}

// checkGraph runs the validation that needs the pinned engine, in
// order: the index an indexed query probes, the vertex ranges, then
// duplicate pairs-query sources. A coordinator holds no graph; the
// owning shard runs these checks and the coordinator relays its 400.
func (q *Query) checkGraph(h *engineHandle) error {
	if q.indexed && h.idx == nil {
		return errors.New("no reverse-walk index loaded for this generation; start usimd with -index, or reload with an index")
	}
	n := h.graph.NumVertices()
	for _, v := range q.vertexArgs() {
		if v < 0 || v >= n {
			return fmt.Errorf("vertex %d out of range [0,%d)", v, n)
		}
	}
	if q.sources != nil {
		seen := make(map[int]bool, len(q.sources))
		for _, u := range q.sources {
			if seen[u] {
				return fmt.Errorf("duplicate source %d in sources", u)
			}
			seen[u] = true
		}
	}
	return nil
}

// adaptiveAnswer carries an eps-bearing query's result — the same
// value the fixed-budget path would produce — with its accuracy report
// through the flight's any-typed value.
type adaptiveAnswer struct {
	val any
	res usimrank.AdaptiveResult
}

// compute runs the query on h's engine: the one engine dispatch that
// cold queries and subscription pushes share.
func (q *Query) compute(ctx context.Context, h *engineHandle) (any, error) {
	if q.indexed && h.idx == nil {
		// A push can land on a generation whose reload dropped the index.
		return nil, fmt.Errorf("no reverse-walk index loaded for generation %d", h.gen)
	}
	e := h.eng
	ao := usimrank.AdaptiveOptions{Eps: q.eps, Delta: q.delta}
	adaptive := q.eps > 0
	switch {
	case q.Shape == "score" && adaptive:
		res, err := e.AdaptiveComputeCtx(ctx, q.algo, q.u, q.v, ao)
		return adaptiveAnswer{res.Score, res}, err
	case q.Shape == "score":
		return e.ComputeCtx(ctx, q.algo, q.u, q.v)
	case q.Shape == "source" && adaptive:
		var res usimrank.AdaptiveResult
		var err error
		switch {
		case q.indexed && q.candidates == nil:
			res, err = e.AdaptiveSingleSourceIndexedCtx(ctx, h.idx, q.u, ao)
		case q.indexed:
			res, err = e.AdaptiveSingleSourceIndexedAgainstCtx(ctx, h.idx, q.u, q.candidates, ao)
		case q.candidates == nil:
			res, err = e.AdaptiveSingleSourceCtx(ctx, q.algo, q.u, ao)
		default:
			res, err = e.AdaptiveSingleSourceAgainstCtx(ctx, q.algo, q.u, q.candidates, ao)
		}
		return adaptiveAnswer{res.Scores, res}, err
	case q.Shape == "source":
		switch {
		case q.indexed && q.candidates == nil:
			return e.SingleSourceIndexedCtx(ctx, h.idx, q.u)
		case q.indexed:
			return e.SingleSourceIndexedAgainstCtx(ctx, h.idx, q.u, q.candidates)
		case q.candidates == nil:
			return e.SingleSourceCtx(ctx, q.algo, q.u)
		default:
			return e.SingleSourceAgainstCtx(ctx, q.algo, q.u, q.candidates)
		}
	case q.Shape == "topk" && adaptive:
		var ranked []usimrank.TopKResult
		var res usimrank.AdaptiveResult
		var err error
		if q.ofU {
			ranked, res, err = usimrank.TopKSimilarAdaptiveCtx(ctx, e, q.algo, q.u, q.k, ao)
		} else {
			ranked, res, err = usimrank.TopKPairsAdaptiveCtx(ctx, e, q.algo, q.k, q.sources, ao)
		}
		return adaptiveAnswer{ranked, res}, err
	case q.Shape == "topk" && q.ofU:
		return usimrank.TopKSimilarCtx(ctx, e, q.algo, q.u, q.k)
	case q.Shape == "topk" && q.sources != nil:
		return usimrank.TopKPairsAmongCtx(ctx, e, q.algo, q.k, q.sources)
	case q.Shape == "topk":
		return usimrank.TopKPairsCtx(ctx, e, q.algo, q.k)
	default:
		return usimrank.BatchCtx(ctx, e, q.algo, q.pairs, 0)
	}
}

// response wraps a computed value in the shape's wire struct: the body
// of a cold POST answer. A subscription push is the uncoalesced,
// profile-free case, so its payload is byte-identical to a cold query.
func (q *Query) response(val any, coalesced bool, prof *obs.Profile) any {
	var info *AdaptiveInfo
	var partial bool
	if a, ok := val.(adaptiveAnswer); ok {
		val, partial = a.val, a.res.Partial
		delta := q.delta
		if delta == 0 {
			delta = usimrank.AdaptiveDefaultDelta
		}
		info = &AdaptiveInfo{
			Eps: q.eps, Delta: delta,
			Radius: a.res.Radius, Walks: a.res.Walks, Rounds: a.res.Rounds,
			Converged: a.res.Converged,
		}
	}
	switch q.Shape {
	case "score":
		return ScoreResponse{
			Alg: q.Alg, U: q.u, V: q.v, Score: val.(float64), Coalesced: coalesced,
			Adaptive: info, Partial: partial, Profile: prof,
		}
	case "source":
		return SourceResponse{
			Alg: q.Alg, U: q.u, Candidates: q.candidates, Scores: val.([]float64), Coalesced: coalesced,
			Adaptive: info, Partial: partial, Profile: prof,
		}
	case "topk":
		results := val.([]usimrank.TopKResult)
		out := make([]PairScore, len(results))
		for i, res := range results {
			out[i] = PairScore{U: res.U, V: res.V, Score: res.Score}
		}
		resp := TopKResponse{
			Alg: q.Alg, K: q.k, Results: out, Coalesced: coalesced,
			Adaptive: info, Partial: partial, Profile: prof,
		}
		if q.ofU {
			u := q.u
			resp.U = &u
		}
		return resp
	default:
		results := val.([]usimrank.PairResult)
		out := make([]BatchPairResult, len(results))
		for i, res := range results {
			out[i] = BatchPairResult{U: res.U, V: res.V, Score: res.Value}
			if res.Err != nil {
				out[i].Error = res.Err.Error()
			}
		}
		return BatchResponse{Alg: q.Alg, Results: out, Coalesced: coalesced, Profile: prof}
	}
}
