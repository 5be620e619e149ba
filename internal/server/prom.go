package server

import (
	"net/http"
	"time"

	"usimrank/internal/obs"
)

// Stats assembles the /v1/stats snapshot (also used by the periodic
// logger).
func (s *Server) Stats() StatsResponse { return s.snapshot(nil) }

// handleMetrics serves GET /metrics in Prometheus text exposition
// format (hand-rolled, no client library — see internal/obs): the
// snapshot Stats returns, written as it is read, then the Go runtime
// gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewPromWriter(w)
	s.snapshot(pw)
	obs.WriteRuntimeMetrics(pw)
}

// snapshot reads every node metric once for both views. The line that
// reads a value declares its Prometheus family and writes it when pw
// is non-nil; the value fills the /v1/stats field. It pins the resident
// engine handle once, so every gauge describes the same generation;
// counters are lifetime server totals and survive hot-swaps.
func (s *Server) snapshot(pw *obs.PromWriter) StatsResponse {
	h := s.engine()
	defer h.release()
	var st StatsResponse

	// Per-query and per-downstream serving metrics (counters + latency
	// histograms), then the serving-plane globals.
	st.Serving, st.Coalescing, st.Queries = s.metrics.Snapshot(pw, s.cfg.MaxInFlight)
	st.UptimeSeconds = obs.Gauge(pw, "usimrank_uptime_seconds", "Seconds since the server process started.", time.Since(s.start).Seconds())
	st.Graph = GraphStats{
		Generation:  obs.Gauge(pw, "usimrank_graph_generation", "Generation of the resident graph (bumps on reload and incremental update).", h.gen),
		Vertices:    obs.Gauge(pw, "usimrank_graph_vertices", "Vertex count of the resident graph.", h.graph.NumVertices()),
		Arcs:        obs.Gauge(pw, "usimrank_graph_arcs", "Arc count of the resident graph.", h.graph.NumArcs()),
		Reloads:     obs.Counter(pw, "usimrank_graph_reloads_total", "Completed hot reloads.", s.reloads.Load()),
		Updates:     obs.Counter(pw, "usimrank_graph_updates_total", "Completed incremental update batches.", s.updates.Load()),
		ArcsUpdated: obs.Counter(pw, "usimrank_graph_arcs_updated_total", "Arc mutations applied by incremental updates.", s.arcsUpdated.Load()),
		Source:      h.source,
	}
	f := pw.Family("usimrank_update_phase_seconds_total", "counter", "Wall time of incremental updates by write-path phase.")
	for i, name := range updatePhases {
		obs.Sample(f, []obs.Label{{Key: "phase", Value: name}}, time.Duration(s.updatePhaseNs[i].Load()).Seconds())
	}
	subs := SubscriptionStats(s.subs.Snapshot(pw))
	st.Subscriptions = &subs

	opt := h.eng.Options()
	rcLen, rcEvict := h.eng.RowCacheStats()
	rcHits, rcMisses, _ := h.eng.RowCacheCounters()
	st.Engine = EngineStats{
		RowCacheLen: obs.Gauge(pw, "usimrank_row_cache_entries", "Exact-row LRU cache occupancy.", rcLen),
		RowCacheCap: obs.Gauge(pw, "usimrank_row_cache_capacity", "Exact-row LRU cache capacity.", opt.RowCacheSize),
		Parallelism: opt.Parallelism,
	}
	obs.Counter(pw, "usimrank_row_cache_hits_total", "Exact-row cache lookup hits.", rcHits)
	obs.Counter(pw, "usimrank_row_cache_misses_total", "Exact-row cache lookup misses.", rcMisses)
	st.Engine.RowCacheEvictions = obs.Counter(pw, "usimrank_row_cache_evictions_total", "Exact-row cache evictions.", rcEvict)

	ks := h.eng.KernelStats()
	obs.Counter(pw, "usimrank_kernel_walks_total", "Random walks sampled across all Monte Carlo kernels.", ks.Walks)
	obs.Counter(pw, "usimrank_kernel_walks_reused_total", "Walks Sampling and SR-TS source queries reused from the walk memo instead of sampling them.", ks.WalksReused)
	obs.Counter(pw, "usimrank_kernel_arcs_instantiated_total", "Possible-world arc instantiations recorded by the v2 kernel.", ks.ArcsInstantiated)
	obs.Gauge(pw, "usimrank_kernel_arena_high_water_bytes", "Largest v2 walk-arena footprint observed.", ks.ArenaHighWaterBytes)
	obs.Counter(pw, "usimrank_kernel_scratch_gets_total", "v2 scratch buffer pool checkouts.", ks.ScratchGets)
	obs.Counter(pw, "usimrank_kernel_scratch_misses_total", "v2 scratch checkouts that had to build a fresh buffer.", ks.ScratchMisses)
	obs.Counter(pw, "usimrank_kernel_filter_vertices_resampled_total", "SR-SP filter vertices re-sampled on first use after an update invalidated them.", ks.FilterVerticesResampled)

	if h.idx != nil {
		st.Index = &IndexStats{
			Queries:       obs.Counter(pw, "usimrank_index_queries_total", "Queries answered through the reverse-walk index.", s.indexQueries.Load()),
			RowsProbed:    obs.Counter(pw, "usimrank_index_rows_probed_total", "Index occupancy rows probed.", s.indexRowsProbed.Load()),
			ResidualWalks: obs.Counter(pw, "usimrank_index_residual_walks_total", "Source-side residual walks sampled for indexed queries.", s.indexResidualWalks.Load()),
			RowsPatched:   obs.Counter(pw, "usimrank_index_rows_patched_total", "Index rows recomputed by incremental update patching.", s.indexRowsPatched.Load()),
			Generation:    obs.Gauge(pw, "usimrank_index_generation", "Graph generation the resident index was built at.", h.idx.Generation()),
			Depth:         obs.Gauge(pw, "usimrank_index_depth", "Deepest step the resident index covers.", h.idx.Depth()),
			Samples:       obs.Gauge(pw, "usimrank_index_samples", "Walk count per vertex the resident index was built from.", h.idx.Samples()),
			Vertices:      h.idx.NumVertices(),
		}
		if n := st.Index.RowsProbed + st.Index.ResidualWalks; n > 0 {
			st.Index.ProbeRatio = float64(st.Index.RowsProbed) / float64(n)
		}
	}
	return st
}
