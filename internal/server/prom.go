package server

import (
	"net/http"
	"time"

	"usimrank/internal/obs"
	"usimrank/internal/sub"
)

// handleMetrics serves GET /metrics in Prometheus text exposition
// format (hand-rolled, no client library — see internal/obs). The
// scrape pins the resident engine handle for its duration so every
// gauge in one exposition describes the same generation; counters are
// lifetime server totals and survive hot-swaps.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.engine()
	defer h.release()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewPromWriter(w)

	// Per-query and per-downstream serving metrics (counters + latency
	// histograms), then the serving-plane globals.
	s.metrics.WriteProm(pw)

	pw.Header("usimrank_uptime_seconds", "gauge", "Seconds since the server process started.")
	pw.Float("usimrank_uptime_seconds", nil, time.Since(s.start).Seconds())

	pw.Header("usimrank_graph_generation", "gauge", "Generation of the resident graph (bumps on reload and incremental update).")
	pw.Uint("usimrank_graph_generation", nil, h.gen)
	pw.Header("usimrank_graph_vertices", "gauge", "Vertex count of the resident graph.")
	pw.Int("usimrank_graph_vertices", nil, int64(h.graph.NumVertices()))
	pw.Header("usimrank_graph_arcs", "gauge", "Arc count of the resident graph.")
	pw.Int("usimrank_graph_arcs", nil, int64(h.graph.NumArcs()))
	pw.Header("usimrank_graph_reloads_total", "counter", "Completed hot reloads.")
	pw.Uint("usimrank_graph_reloads_total", nil, s.reloads.Load())
	pw.Header("usimrank_graph_updates_total", "counter", "Completed incremental update batches.")
	pw.Uint("usimrank_graph_updates_total", nil, s.updates.Load())
	pw.Header("usimrank_graph_arcs_updated_total", "counter", "Arc mutations applied by incremental updates.")
	pw.Uint("usimrank_graph_arcs_updated_total", nil, s.arcsUpdated.Load())

	WriteSubscriptionMetrics(pw, s.subs)

	rcLen, rcEvict := h.eng.RowCacheStats()
	rcHits, rcMisses, _ := h.eng.RowCacheCounters()
	pw.Header("usimrank_row_cache_entries", "gauge", "Exact-row LRU cache occupancy.")
	pw.Int("usimrank_row_cache_entries", nil, int64(rcLen))
	pw.Header("usimrank_row_cache_capacity", "gauge", "Exact-row LRU cache capacity.")
	pw.Int("usimrank_row_cache_capacity", nil, int64(h.eng.Options().RowCacheSize))
	pw.Header("usimrank_row_cache_hits_total", "counter", "Exact-row cache lookup hits.")
	pw.Uint("usimrank_row_cache_hits_total", nil, rcHits)
	pw.Header("usimrank_row_cache_misses_total", "counter", "Exact-row cache lookup misses.")
	pw.Uint("usimrank_row_cache_misses_total", nil, rcMisses)
	pw.Header("usimrank_row_cache_evictions_total", "counter", "Exact-row cache evictions.")
	pw.Uint("usimrank_row_cache_evictions_total", nil, rcEvict)

	ks := h.eng.KernelStats()
	pw.Header("usimrank_kernel_walks_total", "counter", "Random walks sampled across all Monte Carlo kernels.")
	pw.Uint("usimrank_kernel_walks_total", nil, ks.Walks)
	pw.Header("usimrank_kernel_arcs_instantiated_total", "counter", "Possible-world arc instantiations recorded by the v2 kernel.")
	pw.Uint("usimrank_kernel_arcs_instantiated_total", nil, ks.ArcsInstantiated)
	pw.Header("usimrank_kernel_arena_high_water_bytes", "gauge", "Largest v2 walk-arena footprint observed.")
	pw.Uint("usimrank_kernel_arena_high_water_bytes", nil, ks.ArenaHighWaterBytes)
	pw.Header("usimrank_kernel_scratch_gets_total", "counter", "v2 scratch buffer pool checkouts.")
	pw.Uint("usimrank_kernel_scratch_gets_total", nil, ks.ScratchGets)
	pw.Header("usimrank_kernel_scratch_misses_total", "counter", "v2 scratch checkouts that had to build a fresh buffer.")
	pw.Uint("usimrank_kernel_scratch_misses_total", nil, ks.ScratchMisses)

	if h.idx != nil {
		pw.Header("usimrank_index_queries_total", "counter", "Queries answered through the reverse-walk index.")
		pw.Uint("usimrank_index_queries_total", nil, s.indexQueries.Load())
		pw.Header("usimrank_index_rows_probed_total", "counter", "Index occupancy rows probed.")
		pw.Uint("usimrank_index_rows_probed_total", nil, s.indexRowsProbed.Load())
		pw.Header("usimrank_index_residual_walks_total", "counter", "Source-side residual walks sampled for indexed queries.")
		pw.Uint("usimrank_index_residual_walks_total", nil, s.indexResidualWalks.Load())
		pw.Header("usimrank_index_rows_patched_total", "counter", "Index rows recomputed by incremental update patching.")
		pw.Uint("usimrank_index_rows_patched_total", nil, s.indexRowsPatched.Load())
		pw.Header("usimrank_index_generation", "gauge", "Graph generation the resident index was built at.")
		pw.Uint("usimrank_index_generation", nil, h.idx.Generation())
		pw.Header("usimrank_index_depth", "gauge", "Deepest step the resident index covers.")
		pw.Int("usimrank_index_depth", nil, int64(h.idx.Depth()))
		pw.Header("usimrank_index_samples", "gauge", "Walk count per vertex the resident index was built from.")
		pw.Int("usimrank_index_samples", nil, int64(h.idx.Samples()))
	}

	obs.WriteRuntimeMetrics(pw)
}

// WriteSubscriptionMetrics renders a subscription registry's families:
// a node's /v1/subscribe streams, or a coordinator's relays of them.
// Both /metrics handlers call it, so the two planes describe the
// families identically.
func WriteSubscriptionMetrics(pw *obs.PromWriter, r *sub.Registry) {
	ss := r.Snapshot()
	pw.Header("usimrank_subscriptions_active", "gauge", "Open /v1/subscribe streams.")
	pw.Int("usimrank_subscriptions_active", nil, ss.Active)
	pw.Header("usimrank_sub_wakeups_total", "counter", "Subscriptions woken by admin mutations (clean-to-dirty transitions).")
	pw.Uint("usimrank_sub_wakeups_total", nil, ss.Wakeups)
	pw.Header("usimrank_sub_pushes_total", "counter", "Update events delivered to subscribers (snapshots excluded).")
	pw.Uint("usimrank_sub_pushes_total", nil, ss.Pushes)
	pw.Header("usimrank_sub_coalesced_total", "counter", "Subscription wake-ups folded into an already-pending push.")
	pw.Uint("usimrank_sub_coalesced_total", nil, ss.Coalesced)
	pw.Header("usimrank_sub_dropped_total", "counter", "Subscription streams ended by a failed push, or by a terminal error or gone event.")
	pw.Uint("usimrank_sub_dropped_total", nil, ss.Dropped)
}
