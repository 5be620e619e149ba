// Package cluster is the cluster plane of the uncertain-SimRank
// serving system: a coordinator that scatter-gathers the five query
// shapes of the v1 API over a fleet of ordinary usimd shard nodes and
// merges the partial answers deterministically — a sharded cluster
// answers every query with bytes identical to a single node holding
// the same graph.
//
// # Topology
//
// Sharding is by query space, not by data: every shard node holds the
// FULL graph (same file, same engine options, same seed) and owns the
// queries whose source vertex hashes to it. The coordinator holds no
// graph at all — only the shard map, the fan-out client, and the
// serving machinery (request coalescing, admission control, latency
// histograms per shape and per downstream shard) reused from
// usimrank/internal/server. Each shard may have replica endpoints:
// full nodes serving the same shard's traffic, used for hedged
// failover.
//
// # The query pipeline
//
// The coordinator has no request pipeline of its own. Every query is
// validated by the node's validator for its shape (server.ScoreRequest
// .Query and friends), so an invalid request gets the node's 400 bytes
// without touching a shard, and then runs through the node's pipeline,
// server.Plane.Run: the same deadline, tiered admission, flight keys,
// client-gone accounting, metrics and slow-query log. The coordinator
// passes in a server.Backend carrying the "scatter" span name,
// writeClusterError as the error writer, and the fan-out — a
// pass-through or a scatter-merge — as the compute; it pins no engine.
// Checks that need the graph (vertex ranges, index presence, duplicate
// sources) stay with the owning shard, whose 400 is relayed verbatim.
//
// # Metrics
//
// The coordinator's /v1/stats and /metrics share one snapshot
// (Coordinator.snapshot), declared line by line as on a node (see the
// server package's Metrics section). The snapshot reads only local
// state and never probes the shards, so a /metrics scrape stays cheap
// however unhealthy the fleet is. /v1/stats adds the endpoint health
// probe on top (cachedProbe), and TestCoordinatorMetricsExposition
// pins that a scrape sends no request downstream.
//
// # The shard-map contract
//
// ShardMap.Of(v) = splitmix64(v) mod shards. The function is
//
//   - total: defined for every int vertex id, including negatives;
//   - stable: a pure function of (vertex, shard count) — no state, no
//     randomness — identical across processes, platforms, and
//     releases (the splitmix64 constants are frozen; changing them
//     would reshard every cluster);
//   - balanced: the avalanche disperses consecutive vertex ids across
//     shards, so contiguous id ranges don't pile onto one node.
//
// Replica lists hang off shards positionally: endpoint 0 is the
// primary, the rest are replicas. Admin mutations go to every
// endpoint; queries go to the primary first with hedged retry to
// replicas.
//
// # Merge rules (one per query shape)
//
//   - score, source, top-k of u: pass-through. The shard owning
//     Of(u) computes the complete answer; the coordinator relays its
//     response bytes verbatim. Nothing is merged, so nothing can
//     diverge.
//   - pairs top-k: the coordinator partitions the source vertices
//     across shards (ShardMap.Partition), each shard answers a
//     sources-restricted pairs query (every pair has exactly one
//     source, its smaller endpoint), and the partial top-k lists are
//     k-way merged under the canonical topk.Better total order
//     (score desc, then U, then V). Because each global winner
//     belongs to exactly one shard and survives that shard's local
//     top-k under the same order, the merge reproduces the
//     single-node answer bit for bit. Source lists longer than
//     maxSourcesPerChunk are split across several sub-requests per
//     shard — the merge is associative, so chunking cannot change the
//     result, and coordinator-built bodies stay bounded on
//     arbitrarily large graphs.
//   - batch: pairs are regrouped by the shard owning each pair's
//     source, scattered, and the per-shard results are reassembled
//     into input order. Per-pair scores are independent and
//     deterministic, so regrouping cannot change them.
//
// # Determinism guarantee
//
// Monte Carlo walk streams are seeded by (seed, vertex, side) — PR 2's
// invariant — so a shard computes exactly the walks a single node
// would compute for the same source, regardless of which other
// sources it owns, of the shard count, and of which replica answers a
// hedged request. Merged responses are encoded by the same
// server.WriteJSON encoder the single node uses. The cluster
// equivalence suite pins response bytes at 1, 2, and 4 shards against
// a single-node reference for every query shape and algorithm.
//
// One deliberate seam: the "coalesced" flag inside a relayed body is
// the shard's view, while the coordinator's own coalescing hits are
// visible in its /v1/stats. Under sequential traffic both are false;
// equivalence of scores is unaffected either way.
//
// # Failure semantics
//
//   - A failed or slow primary is hedged: after HedgeDelay (or
//     immediately on a transport error / 5xx other than 504) the next
//     replica is asked, and the first definitive answer — any
//     response below 500, a shard's 400 included, plus the shard's
//     own 504 deadline verdict — wins and is relayed.
//   - Every query response carries the node's graph generation
//     (server.GenerationHeader); the coordinator rejects answers
//     stamped older than its cluster generation as node failures, so
//     a replica that was down through an admin mutation and came back
//     holding the old graph can never leak stale bytes into a relay.
//   - A shard with every endpoint down yields a structured 502,
//     {"error":{"code":"shard_unavailable","shard":"shard2",...}},
//     never a hang or a silently partial merge.
//   - A shard that only times out (per-shard deadline on every
//     attempt) yields a 504 with the same shard field.
//   - Admin mutations (/v1/admin/update, /v1/admin/reload) fan out to
//     every endpoint and are transactional at the generation level:
//     the coordinator succeeds only when all endpoints acknowledge
//     the same successor generation, re-probes the fleet when
//     responses were lost, and otherwise reports a structured
//     generation-skew 502 ({"code":"generation_skew"}) naming every
//     divergent endpoint. Mutations are serialised behind one mutex,
//     mirroring the single node's admin serialisation.
//   - Subscriptions (GET /v1/subscribe) are relayed frame-by-frame
//     from the shard owning the query's source vertex, with failover:
//     a draining node's terminal shutdown event is swallowed and the
//     stream resumes on a replica via Last-Event-ID, so one node
//     bouncing is invisible to the cluster client (see subscribe.go).
package cluster
