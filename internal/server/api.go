package server

// JSON request/response schemas of the v1 API. Field-for-field these
// are the wire format documented in the package comment; keep the two
// in sync.

import "usimrank/internal/obs"

// ScoreRequest asks for one pairwise similarity s(u, v).
type ScoreRequest struct {
	Alg string `json:"alg"`
	U   int    `json:"u"`
	V   int    `json:"v"`
	// Eps, when positive, makes this an adaptive-accuracy query: the
	// engine samples in geometric rounds and stops as soon as the
	// confidence radius falls to eps, instead of always spending the
	// boot-time walk budget. The response then carries an "adaptive"
	// block. Requests without eps are byte-identical to pre-adaptive
	// servers.
	Eps float64 `json:"eps,omitempty"`
	// Delta is the adaptive query's failure probability (the returned
	// interval covers the true possible-world score with probability
	// ≥ 1−delta). Only valid with eps; defaults to 0.05.
	Delta float64 `json:"delta,omitempty"`
	// TimeoutMs optionally lowers the server's per-request deadline for
	// this query. Values ≤ 0 or above the server default are ignored.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Debug arms tracing for this request and returns the recorded span
	// tree (with kernel resource counts) in the response's profile
	// field. Debug requests never coalesce with non-debug ones.
	Debug bool `json:"debug,omitempty"`
}

// AdaptiveInfo reports how an adaptive (ε, δ) query converged. Present
// only on responses to requests that set eps.
type AdaptiveInfo struct {
	// Eps and Delta echo the request's effective accuracy target.
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
	// Radius is the achieved confidence radius: the returned score is
	// within ±radius of the exact possible-world expectation with
	// probability ≥ 1−delta. For a multi-score response it is the worst
	// (largest) per-candidate radius.
	Radius float64 `json:"radius"`
	// Walks is the number of walk pairs actually sampled; Rounds the
	// number of geometric sampling rounds committed.
	Walks  int64 `json:"walks"`
	Rounds int   `json:"rounds"`
	// Converged reports that the stopping rule fired (radius ≤ eps).
	// False with partial=true means the deadline cut sampling short;
	// false with partial=false means the walk cap was reached first.
	Converged bool `json:"converged"`
}

// ScoreResponse carries one pairwise similarity.
type ScoreResponse struct {
	Alg   string  `json:"alg"`
	U     int     `json:"u"`
	V     int     `json:"v"`
	Score float64 `json:"score"`
	// Coalesced reports that this response was shared from a concurrent
	// identical query rather than computed by a dedicated engine call.
	Coalesced bool `json:"coalesced,omitempty"`
	// Adaptive reports the accuracy actually achieved by an eps-bearing
	// request; Partial marks a best-effort answer the deadline cut short
	// (HTTP status is still 200 — the score and radius are valid, the
	// target eps was just not reached in time).
	Adaptive *AdaptiveInfo `json:"adaptive,omitempty"`
	Partial  bool          `json:"partial,omitempty"`
	// Profile is the per-query execution profile, present only when the
	// request set debug=true — regular responses stay byte-identical
	// whether or not tracing is armed.
	Profile *obs.Profile `json:"profile,omitempty"`
}

// SourceRequest asks for the single-source vector s(u, ·), optionally
// restricted to an explicit candidate set. Alg may also name the
// source-only "indexed" strategy: answer from the resident
// reverse-walk index plus a residual sample of u's walks — 400 when
// the server holds no index for the current generation.
type SourceRequest struct {
	Alg        string `json:"alg"`
	U          int    `json:"u"`
	Candidates []int  `json:"candidates,omitempty"`
	// Eps/Delta select adaptive accuracy (see ScoreRequest); the worst
	// per-candidate radius is driven to eps.
	Eps       float64 `json:"eps,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	TimeoutMs int     `json:"timeout_ms,omitempty"`
	Debug     bool    `json:"debug,omitempty"`
}

// SourceResponse carries the scores; Scores[i] is s(U, Candidates[i]),
// or s(U, i) over all vertices when the request had no candidate set.
type SourceResponse struct {
	Alg        string        `json:"alg"`
	U          int           `json:"u"`
	Candidates []int         `json:"candidates,omitempty"`
	Scores     []float64     `json:"scores"`
	Coalesced  bool          `json:"coalesced,omitempty"`
	Adaptive   *AdaptiveInfo `json:"adaptive,omitempty"`
	Partial    bool          `json:"partial,omitempty"`
	Profile    *obs.Profile  `json:"profile,omitempty"`
}

// TopKRequest asks for the K vertices most similar to *U, or — when U
// is null/omitted — the K most similar vertex pairs.
type TopKRequest struct {
	Alg string `json:"alg"`
	U   *int   `json:"u,omitempty"`
	K   int    `json:"k"`
	// Sources, only valid without U, restricts the pairs sweep to pairs
	// whose source (the smaller endpoint) is in the list. The cluster
	// coordinator decomposes a full pairs query into one such request
	// per shard; merging the partial top-k lists under the canonical
	// order reproduces the unrestricted answer bit for bit.
	Sources []int `json:"sources,omitempty"`
	// Eps/Delta select adaptive accuracy (see ScoreRequest): every
	// score feeding the ranking is resolved to ±eps, so the returned
	// order is correct up to score ties closer than 2·eps.
	Eps       float64 `json:"eps,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	TimeoutMs int     `json:"timeout_ms,omitempty"`
	Debug     bool    `json:"debug,omitempty"`
}

// PairScore is one scored vertex pair.
type PairScore struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Score float64 `json:"score"`
}

// TopKResponse carries the ranked results, best first.
type TopKResponse struct {
	Alg       string        `json:"alg"`
	U         *int          `json:"u,omitempty"`
	K         int           `json:"k"`
	Results   []PairScore   `json:"results"`
	Coalesced bool          `json:"coalesced,omitempty"`
	Adaptive  *AdaptiveInfo `json:"adaptive,omitempty"`
	Partial   bool          `json:"partial,omitempty"`
	Profile   *obs.Profile  `json:"profile,omitempty"`
}

// BatchRequest asks for many pairwise similarities in one call.
type BatchRequest struct {
	Alg       string   `json:"alg"`
	Pairs     [][2]int `json:"pairs"`
	TimeoutMs int      `json:"timeout_ms,omitempty"`
	Debug     bool     `json:"debug,omitempty"`
}

// BatchPairResult is one outcome of a batch computation; Error is set
// (and Score zero) when that pair failed, e.g. a vertex out of range.
type BatchPairResult struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Score float64 `json:"score"`
	Error string  `json:"error,omitempty"`
}

// BatchResponse carries per-pair results in input order.
type BatchResponse struct {
	Alg       string            `json:"alg"`
	Results   []BatchPairResult `json:"results"`
	Coalesced bool              `json:"coalesced,omitempty"`
	Profile   *obs.Profile      `json:"profile,omitempty"`
}

// ReloadRequest asks the server to hot-swap to the graph stored at
// Graph (text or binary codec, auto-detected). Warm additionally
// builds the new engine's SR-SP filter pools before the swap. Index
// optionally names an index file built for the new graph; it must pass
// the new engine's generation/seed/sample checks or the whole reload
// fails. Without it the resident index (if any) is dropped — a reload
// starts a fresh engine lineage, so the old rows can never match.
type ReloadRequest struct {
	Graph string `json:"graph"`
	Warm  bool   `json:"warm,omitempty"`
	Index string `json:"index,omitempty"`
}

// ReloadResponse reports the completed swap.
type ReloadResponse struct {
	// Generation is the new engine's generation number (the boot engine
	// is generation 1; every successful reload increments it).
	Generation uint64 `json:"generation"`
	Vertices   int    `json:"vertices"`
	Arcs       int    `json:"arcs"`
	// BuildMs is the wall time spent loading the graph and building
	// (and optionally warming) the new engine, off the serving path.
	BuildMs int64 `json:"build_ms"`
	// Drained reports whether every request pinned to the old engine
	// finished within the server's drain timeout. The swap itself has
	// already happened either way; false only means stragglers were
	// still completing on the old engine when the response was written.
	Drained bool `json:"drained"`
}

// ArcUpdateRequest is one arc mutation of an update batch. Op is
// "insert", "delete" or "reweight" (short forms "ins"/"del"/"rw" also
// parse); P is required for insert and reweight and ignored for
// delete.
type ArcUpdateRequest struct {
	Op string  `json:"op"`
	U  int     `json:"u"`
	V  int     `json:"v"`
	P  float64 `json:"p,omitempty"`
}

// UpdateRequest asks the server to apply a batch of arc mutations
// incrementally: the engine for the mutated graph is derived from the
// resident one (warm rows and filter pools carried over, targeted
// invalidation only), then atomically swapped in under the same
// refcounted-handle scheme as a reload. In-flight queries finish on
// their pinned generation.
type UpdateRequest struct {
	Updates []ArcUpdateRequest `json:"updates"`
}

// UpdateResponse reports the completed incremental swap.
type UpdateResponse struct {
	// Generation is the serving plane's graph generation (the one
	// /v1/stats reports and coalescing keys carry): boot engine is 1,
	// +1 per successful reload or update. It can differ from the
	// engine-internal Engine.Generation lineage once reloads are mixed
	// in, since a reload starts a fresh engine lineage.
	Generation uint64 `json:"generation"`
	// Applied is the number of distinct arcs with a net change; staged
	// sequences that net out (insert then delete) are not counted.
	Applied  int `json:"applied"`
	Vertices int `json:"vertices"`
	Arcs     int `json:"arcs"`
	// RowsEvicted / RowsRetained partition the predecessor's warm row
	// cache; only sources within the walk horizon of a touched arc are
	// evicted.
	RowsEvicted  int `json:"rows_evicted"`
	RowsRetained int `json:"rows_retained"`
	// FiltersPatched reports whether warm SR-SP filter pools were
	// carried over (each touched vertex invalidated, to be re-sampled
	// by the first SR-SP query that reaches it) rather than left to a
	// lazy from-scratch rebuild.
	FiltersPatched bool `json:"filters_patched"`
	// IndexRowsPatched is the number of vertices whose reverse-walk
	// index rows were recomputed for the new generation (0 when the
	// server serves no index). The patched index is bit-identical to a
	// fresh offline build on the mutated graph.
	IndexRowsPatched int `json:"index_rows_patched,omitempty"`
	// ApplyMs is the wall time of the incremental derivation, off the
	// serving path (compare ReloadResponse.BuildMs).
	ApplyMs int64 `json:"apply_ms"`
	// Drained reports whether every request pinned to the old engine
	// finished within the server's drain timeout.
	Drained bool `json:"drained"`
}

// GenerationHeader is the response header carrying the graph
// generation a query was pinned to. The cluster coordinator checks it
// against its own cluster generation and treats an older value as a
// node failure (failover-eligible), so an endpoint that missed admin
// mutations can never leak stale-graph answers into a relay.
const GenerationHeader = "Usimrank-Generation"

// ErrorResponse is the uniform error envelope.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code and a human
// message. Shard is set only by the cluster coordinator, naming the
// downstream shard ("shard2") whose failure produced this error.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Shard   string `json:"shard,omitempty"`
}

// Error codes used in ErrorDetail.Code.
const (
	CodeBadRequest       = "bad_request"       // 400
	CodeNotFound         = "not_found"         // 404
	CodeOverloaded       = "overloaded"        // 429
	CodeEngineError      = "engine_error"      // 500
	CodeUnavailable      = "unavailable"       // 503
	CodeDeadlineExceeded = "deadline_exceeded" // 504

	// Cluster-coordinator codes (see usimrank/internal/cluster).
	CodeShardUnavailable = "shard_unavailable" // 502: a shard and all its replicas failed
	CodeGenerationSkew   = "generation_skew"   // 502: shards disagree on the graph generation
)

// StatsResponse is the /v1/stats snapshot.
type StatsResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Graph         GraphStats            `json:"graph"`
	Engine        EngineStats           `json:"engine"`
	Serving       ServingStats          `json:"serving"`
	Coalescing    CoalescingStats       `json:"coalescing"`
	Queries       map[string]QueryStats `json:"queries"`
	// Index is present only while the server holds a reverse-walk index
	// for the resident generation.
	Index *IndexStats `json:"index,omitempty"`
	// Subscriptions covers the /v1/subscribe continuous-query plane.
	Subscriptions *SubscriptionStats `json:"subscriptions,omitempty"`
}

// SubscriptionStats covers the push-subscription plane. It is
// converted from sub.Stats, so the two field lists stay identical.
type SubscriptionStats struct {
	// Active is the number of open subscription streams.
	Active int64 `json:"active"`
	// Lookups counts inverted-index probes by update wake-ups — exactly
	// one per BFS-touched vertex per admin mutation, independent of how
	// many subscriptions are registered (the idle-cost invariant).
	Lookups uint64 `json:"lookups"`
	// Wakeups counts clean→dirty subscription transitions; Coalesced
	// counts wake-ups folded into an already-pending push (a burst of
	// update batches costs one recompute, not one per batch).
	Wakeups   uint64 `json:"wakeups"`
	Coalesced uint64 `json:"coalesced"`
	// Pushes counts delivered update events (snapshots excluded);
	// Dropped counts streams torn down by a failed push.
	Pushes  uint64 `json:"pushes"`
	Dropped uint64 `json:"dropped"`
}

// IndexStats covers the reverse-walk index serving path.
type IndexStats struct {
	// Generation, Vertices, Depth and Samples echo the resident index's
	// header; Generation always equals the engine generation (mismatched
	// indexes are rejected at boot, reload, and update time).
	Generation uint64 `json:"generation"`
	Vertices   int    `json:"vertices"`
	Depth      int    `json:"depth"`
	Samples    int    `json:"samples"`
	// Queries counts alg:"indexed" source queries answered (coalesced
	// followers included).
	Queries uint64 `json:"queries"`
	// RowsProbed counts index rows dotted against a residual sample;
	// ResidualWalks counts the source walks sampled at request time.
	// Their ratio is the probe-vs-sample balance of the indexed path:
	// per query, rows probed grow with the candidate set while the
	// residual stays one N-walk sample, so a healthy index workload has
	// RowsProbed ≫ ResidualWalks. Coalesced followers add to neither.
	RowsProbed    uint64 `json:"rows_probed"`
	ResidualWalks uint64 `json:"residual_walks"`
	// ProbeRatio is RowsProbed / (RowsProbed + ResidualWalks) — the
	// fraction of the indexed path's work units served from the index
	// rather than sampled at request time.
	ProbeRatio float64 `json:"probe_ratio"`
	// RowsPatched is the cumulative number of vertices whose index rows
	// were recomputed by /v1/admin/update batches.
	RowsPatched uint64 `json:"rows_patched"`
}

// GraphStats describes the currently resident graph.
type GraphStats struct {
	Source     string `json:"source"`
	Vertices   int    `json:"vertices"`
	Arcs       int    `json:"arcs"`
	Generation uint64 `json:"generation"`
	Reloads    uint64 `json:"reloads"`
	// Updates counts successful incremental update batches; ArcsUpdated
	// counts the arcs they changed in total.
	Updates     uint64 `json:"updates"`
	ArcsUpdated uint64 `json:"arcs_updated"`
}

// EngineStats surfaces the resident engine's knobs and cache health.
type EngineStats struct {
	Parallelism       int    `json:"parallelism"`
	RowCacheLen       int    `json:"row_cache_len"`
	RowCacheCap       int    `json:"row_cache_cap"`
	RowCacheEvictions uint64 `json:"row_cache_evictions"`
}

// ServingStats covers admission control and the adaptive serving path.
type ServingStats struct {
	InFlight          int64  `json:"in_flight"`
	MaxInFlight       int    `json:"max_in_flight"`
	AdmissionRejected uint64 `json:"admission_rejected"`
	DeadlineExceeded  uint64 `json:"deadline_exceeded"`
	// ClientGone counts requests abandoned by their client (connection
	// closed while the query was queued or coalesced). They are not
	// server errors and are excluded from the per-shape error counts.
	ClientGone uint64 `json:"client_gone"`
	// AdaptiveQueries counts eps-bearing queries led (coalesced
	// followers excluded); PartialResults counts those answered
	// best-effort under deadline pressure; AdaptiveRounds and
	// AdaptiveEarlyStops accumulate committed sampling rounds and
	// queries that converged before exhausting their walk budget.
	AdaptiveQueries    uint64 `json:"adaptive_queries"`
	PartialResults     uint64 `json:"partial_results"`
	AdaptiveRounds     uint64 `json:"adaptive_rounds"`
	AdaptiveEarlyStops uint64 `json:"adaptive_early_stops"`
}

// CoalescingStats covers the singleflight layer. PerShape maps a query
// shape ("score", "source", "topk", "batch") to its hit count.
type CoalescingStats struct {
	Hits     uint64            `json:"hits"`
	Misses   uint64            `json:"misses"`
	HitRate  float64           `json:"hit_rate"`
	PerShape map[string]uint64 `json:"per_shape"`
}

// QueryStats is one shape+algorithm cell of the query table, keyed
// "shape/alg" in StatsResponse.Queries.
type QueryStats struct {
	Count        uint64         `json:"count"`
	Errors       uint64         `json:"errors"`
	CoalesceHits uint64         `json:"coalesce_hits"`
	LatencyMs    LatencySummary `json:"latency_ms"`
}

// LatencySummary is the percentile digest of one latency histogram.
// Percentiles are upper bucket bounds of a base-2 histogram, so they
// overestimate by at most 2x; Max is exact.
type LatencySummary struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}
