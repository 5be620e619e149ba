// Package server is the serving plane of the uncertain-SimRank engine:
// a long-running HTTP JSON API over one resident [usimrank.Engine], so
// the engine's warm state — the LRU row cache, the SR-SP filter pools,
// the per-source kernels — amortises across queries instead of being
// rebuilt per CLI invocation.
//
// The server does three pieces of real serving work above routing:
//
//   - Request coalescing. Concurrent identical queries (same shape,
//     algorithm, and operands, on the same graph generation) collapse
//     into one engine call through a singleflight layer; every caller
//     receives the one result, and per-shape coalescing hits are
//     counted. Because the engine is deterministic, sharing a result is
//     indistinguishable from recomputing it.
//
//   - Admission control. A bounded in-flight semaphore (Config.
//     MaxInFlight) caps concurrent queries above the engine's own
//     Options.Parallelism bound; requests that cannot be admitted
//     within Config.AdmissionWait are rejected with HTTP 429 instead of
//     queuing unboundedly. Every admitted query runs under a deadline
//     (Config.QueryTimeout, lowerable per request via timeout_ms);
//     queries that exceed it return HTTP 504 and the deadline actually
//     cancels the in-flight sampling work through the engine's
//     context-aware kernels.
//
//   - Zero-downtime hot-swap. POST /v1/admin/reload builds a fresh
//     engine from a graph file while the old one keeps serving,
//     atomically swaps the engine pointer, then drains requests still
//     running on the old engine. Each request is pinned to exactly one
//     engine for its whole lifetime (reference-counted handles), so no
//     request ever observes a torn state between two graphs.
//
//   - Incremental updates. POST /v1/admin/update mutates individual
//     arcs (insert/delete/reweight) without a rebuild: a successor
//     engine is derived from the resident one — row-cache entries
//     outside the walk horizon of every touched arc and per-vertex
//     SR-SP filter state carried over warm — and swapped in under the
//     same handle scheme as a reload. Results after an update are
//     bit-identical to a from-scratch rebuild of the mutated graph;
//     only the cost differs (orders of magnitude, see the ApplyUpdates
//     benchmarks).
//
// # The query pipeline
//
// Every query runs through one pipeline, Plane.Run (pipeline.go): a
// POST on any of the four query shapes, every subscription push, and —
// in package cluster — every coordinator query. It owns the per-query
// policy: tracing, the effective deadline, tiered admission (a
// follower gives its slot back), coalescing under the query's flight
// key, the client-gone accounting, the per-shape metrics and the
// slow-query log. Each shape has one validator and one flight-key
// format (query.go); node handlers, coordinator handlers and
// subscriptions all use them, so the planes reject the same requests
// with the same bytes. The callers differ only in the Backend they pass
// in and in whether there is an HTTP exchange:
//
//   - the compute span: "engine_compute" on a node, "scatter" on a
//     coordinator;
//   - the engine handle the leader re-pins for the flight's lifetime:
//     node queries and pushes only;
//   - the error writer: writeQueryError on a node, writeClusterError
//     on a coordinator;
//   - a push passes no request or response writer: it is neither
//     recorded nor written, and gets its result back to encode.
//
// # Metrics
//
// GET /v1/stats and GET /metrics are two views of one snapshot
// (Server.snapshot in prom.go). Each metric is declared on the
// snapshot line that reads it: obs.Counter or obs.Gauge names the
// Prometheus family, type and HELP, writes the family when the
// snapshot is given a writer, and returns the value that fills the
// /v1/stats field. Stats is the snapshot without a writer; /metrics is
// the snapshot with one, then the Go runtime gauges. The shared
// serving registry (MetricsRegistry.Snapshot) and the subscription
// registry (sub.Registry.Snapshot) declare their families the same
// way, and the cluster coordinator calls both. To add a metric, add
// its line to the snapshot that reads it; the wire types in api.go
// stay the only JSON declaration, and the exposition order is the
// order in which the snapshot reads values.
//
// # Endpoints
//
// All query endpoints accept POST with a JSON body and return JSON.
// Errors are {"error":{"code":string,"message":string}} with the
// matching HTTP status (400 bad request, 404 unknown route, 429
// admission rejected, 500 engine failure, 503 server shutting down,
// 504 deadline exceeded).
//
// POST /v1/score — one pairwise similarity.
//
//	request:  {"alg":"srsp","u":3,"v":17,"timeout_ms":2000}
//	response: {"alg":"srsp","u":3,"v":17,"score":0.0123,"coalesced":false}
//
// POST /v1/source — the single-source vector s(u,·), optionally
// restricted to a candidate set.
//
//	request:  {"alg":"twophase","u":3,"candidates":[1,2,5]}
//	response: {"alg":"twophase","u":3,"candidates":[1,2,5],"scores":[0.1,0.02,0]}
//
// POST /v1/topk — the k vertices most similar to u, or (when "u" is
// omitted) the k most similar vertex pairs.
//
//	request:  {"alg":"baseline","u":3,"k":10}
//	response: {"alg":"baseline","u":3,"k":10,
//	           "results":[{"u":3,"v":9,"score":0.2}, ...]}
//
// POST /v1/batch — many pairs in one call, grouped by source inside
// the engine so shared u-side work is paid once.
//
//	request:  {"alg":"srsp","pairs":[[0,1],[0,2],[7,9]]}
//	response: {"alg":"srsp","results":[
//	           {"u":0,"v":1,"score":0.5},
//	           {"u":0,"v":2,"score":0.01},
//	           {"u":7,"v":9,"score":0,"error":"..."}]}
//
// GET /v1/stats — the metrics snapshot: per-shape+algorithm query
// counts, error counts, latency percentiles (p50/p90/p99/max),
// coalescing hit rates, admission rejections, deadline expiries, the
// in-flight gauge, engine row-cache occupancy/evictions, and the
// current graph generation. The same snapshot is logged periodically
// when Config.LogEvery > 0.
//
// POST /v1/admin/reload — the hot-swap.
//
//	request:  {"graph":"/path/to/graph.ug","warm":true}
//	response: {"generation":2,"vertices":16384,"arcs":65536,
//	           "build_ms":412,"drained":true}
//
// "warm":true additionally builds the new engine's SR-SP filter pools
// before the swap, so the first SR-SP query after the swap does not pay
// the offline phase. "drained" reports whether every request pinned to
// the old engine finished within Config.DrainTimeout (the swap itself
// has already happened either way).
//
// POST /v1/admin/update — incremental arc mutations.
//
//	request:  {"updates":[{"op":"insert","u":1,"v":2,"p":0.5},
//	                      {"op":"reweight","u":0,"v":3,"p":0.9},
//	                      {"op":"delete","u":4,"v":1}]}
//	response: {"generation":3,"applied":3,"vertices":16384,"arcs":65537,
//	           "rows_evicted":12,"rows_retained":4084,
//	           "filters_patched":true,"apply_ms":4,"drained":true}
//
// Batches are transactional: the first invalid mutation (inserting an
// existing arc, deleting a missing one, a probability outside (0,1])
// rejects the whole batch with 400 and the resident engine is
// untouched. Batch size is bounded by Config.MaxUpdateBatch.
//
// GET /v1/subscribe — the continuous-query plane: a long-lived
// Server-Sent Events stream for one standing query shape
// (shape=score|source|topk plus the shape's operands). The client
// receives an initial "snapshot" event, then an "update" event
// whenever an admin mutation's invalidation BFS proves the answer can
// have changed; every event's id is the graph generation its payload
// was computed at, and every payload is byte-identical to the cold
// POST response of the same shape at that generation. See subscribe.go
// and the internal/sub package for the wake-up machinery.
//
// GET /healthz — liveness: 200 "ok" once the server can serve.
package server
