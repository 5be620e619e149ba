package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usimrank"
	"usimrank/internal/sub"
)

// Config configures a Server. The zero value selects sane serving
// defaults; Engine follows the engine's own defaulting rules.
type Config struct {
	// Engine configures the resident engine (and every engine built by
	// a hot-swap: reloads reuse the boot options).
	Engine usimrank.Options
	// Index optionally serves alg:"indexed" source queries from a
	// precomputed reverse-walk index. New rejects an index whose
	// generation, vertex count, sample count, seed, or depth disagrees
	// with the boot engine — a mismatched index must fail loudly at boot,
	// never answer quietly from the wrong graph. Incremental updates
	// patch it in place (only BFS-touched vertices recomputed); reloads
	// drop it unless the reload names a replacement. A server New
	// accepts owns the index: it closes the index's mapping once a
	// reload has replaced it and the last request using it has finished.
	Index *usimrank.Index
	// MaxInFlight bounds concurrently admitted queries across all
	// shapes. Default: 4× the engine's effective Parallelism, at least
	// 32.
	MaxInFlight int
	// QueryTimeout is the per-request deadline; requests may lower (but
	// not raise) it via timeout_ms. Default 30s.
	QueryTimeout time.Duration
	// AdmissionWait is how long a request may wait for an in-flight
	// slot before being rejected with 429. Default 100ms; negative
	// disables waiting (immediate rejection when saturated).
	AdmissionWait time.Duration
	// AdmissionReserve carves this many of MaxInFlight's slots into a
	// reserve that only adaptive (eps-bearing) queries may fall back to
	// when the general pool is saturated. Adaptive queries stop
	// sampling as soon as their accuracy target is met, so the reserve
	// keeps the cheap, degradable tier responsive under a flood of
	// full-budget queries. 0 (the default) disables the reserve; values
	// ≥ MaxInFlight are clamped to leave at least one general slot.
	AdmissionReserve int
	// DrainTimeout bounds how long a reload waits for requests pinned
	// to the replaced engine before reporting drained=false, and how
	// long DrainSubscriptions waits for live subscription streams to
	// send their terminal event and close. Default 15s.
	DrainTimeout time.Duration
	// SubMaxStaleness caps the staleness SLA a /v1/subscribe client may
	// request via staleness_ms (how long the server may sit on a wake-up
	// coalescing further generations before it must push). Default 30s.
	SubMaxStaleness time.Duration
	// SubHeartbeat is the keep-alive comment period on idle subscription
	// streams. Default 15s.
	SubHeartbeat time.Duration
	// MaxUpdateBatch bounds the number of arc mutations one
	// /v1/admin/update request may carry. Default 4096; negative
	// disables the endpoint (every request is rejected with 400).
	MaxUpdateBatch int
	// LogEvery, when positive, logs a one-line metrics summary at that
	// period.
	LogEvery time.Duration
	// Logger receives the periodic summaries and reload events.
	// Default: stderr with an "usimd " prefix.
	Logger *log.Logger
	// SlowQuery, when positive, arms tracing on every request and logs
	// a structured slow-query line (carrying the trace id and span
	// timings) for queries at or above the threshold. 0 disables.
	SlowQuery time.Duration
	// LogJSON emits slow-query lines as single-line JSON objects
	// instead of key=value text.
	LogJSON bool
}

func (c Config) withDefaults(parallelism int) Config {
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4 * parallelism
		if c.MaxInFlight < 32 {
			c.MaxInFlight = 32
		}
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = 100 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxUpdateBatch == 0 {
		c.MaxUpdateBatch = 4096
	}
	if c.SubMaxStaleness <= 0 {
		c.SubMaxStaleness = 30 * time.Second
	}
	if c.SubHeartbeat <= 0 {
		c.SubHeartbeat = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "usimd ", log.LstdFlags)
	}
	return c
}

// Server serves the five query shapes of one resident engine over
// HTTP, with request coalescing, admission control, and zero-downtime
// graph hot-swap. Create with New, mount via Handler (or use it as an
// http.Handler directly), stop with Close.
type Server struct {
	cfg Config

	cur         atomic.Pointer[engineHandle]
	reloads     atomic.Uint64
	updates     atomic.Uint64
	arcsUpdated atomic.Uint64

	// Index-path counters (see IndexStats). Cumulative across hot-swaps:
	// the index travels with the engine handle, the counters with the
	// server.
	indexQueries       atomic.Uint64
	indexRowsProbed    atomic.Uint64
	indexResidualWalks atomic.Uint64
	indexRowsPatched   atomic.Uint64
	// updatePhaseNs accumulates the wall time of each write-path phase
	// of the incremental updates, indexed like updatePhases.
	updatePhaseNs [len(updatePhases)]atomic.Int64
	// adminMu serialises every admin mutation — reloads AND incremental
	// updates. Both paths load the current handle, derive or build a
	// successor, and publish it; two of them interleaving would both
	// derive from the same predecessor and one swap would be silently
	// lost (duplicate generations, one batch's arcs vanishing). Queries
	// never take it. TestAdminMutationsSerialized pins the invariant.
	adminMu sync.Mutex

	// plane runs every query (see pipeline.go); metrics is its registry,
	// read by the stats and /metrics views.
	plane   *Plane
	metrics *MetricsRegistry
	// subs tracks live /v1/subscribe streams; admin mutations wake the
	// affected ones (see subscribe.go).
	subs *sub.Registry

	// baseCtx parents every flight's execution context (through the
	// plane) and every subscription stream, so Close cancels in-flight
	// engine work.
	baseCtx context.Context
	cancel  context.CancelFunc

	start time.Time
	mux   *http.ServeMux
}

// New builds a server around an engine constructed from g with
// cfg.Engine options. source is a human-readable descriptor of where g
// came from (a file path for usimd), echoed in /v1/stats.
func New(g *usimrank.Graph, source string, cfg Config) (*Server, error) {
	eng, err := usimrank.New(g, cfg.Engine)
	if err != nil {
		return nil, err
	}
	if cfg.Index != nil {
		if err := eng.CheckIndex(cfg.Index); err != nil {
			return nil, fmt.Errorf("index rejected: %w", err)
		}
	}
	cfg = cfg.withDefaults(eng.Options().Parallelism)
	ctx, cancel := context.WithCancel(context.Background())
	metrics := NewMetricsRegistry()
	s := &Server{
		cfg:     cfg,
		plane:   NewPlane(ctx, "server", cfg, metrics),
		metrics: metrics,
		subs:    sub.NewRegistry(),
		baseCtx: ctx,
		cancel:  cancel,
		start:   time.Now(),
	}
	s.cur.Store(newEngineHandle(eng, g, source, 1, cfg.Index, nil))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/score", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, new(ScoreRequest)) })
	s.mux.HandleFunc("POST /v1/source", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, new(SourceRequest)) })
	s.mux.HandleFunc("POST /v1/topk", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, new(TopKRequest)) })
	s.mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, new(BatchRequest)) })
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/admin/update", s.handleUpdate)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, CodeNotFound, "unknown route "+r.URL.Path)
	})
	if cfg.LogEvery > 0 {
		go s.logLoop()
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the periodic logger and cancels the flight contexts of
// in-flight engine work. It does not wait for requests to finish —
// pair it with http.Server.Shutdown, which does.
func (s *Server) Close() { s.cancel() }

// engine pins the current engine handle. The loop only retries when a
// hot-swap retired the handle between the load and the pin.
func (s *Server) engine() *engineHandle {
	for {
		h := s.cur.Load()
		if h.tryAcquire() {
			return h
		}
	}
}

// queryRequest is a v1 query body: it validates itself into a Query.
type queryRequest interface{ Query() (*Query, error) }

// handleQuery serves one POST query of any shape: decode and validate
// the body, pin the resident engine, check the operands against its
// graph, and run the shared pipeline with the engine as backend.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, req queryRequest) {
	if !s.decodeBody(w, r, req) {
		return
	}
	q, err := req.Query()
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	h := s.engine()
	defer h.release()
	if err := q.checkGraph(h); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// Stamp the generation this query is pinned to. The cluster
	// coordinator reads it to reject answers from a node that missed
	// admin mutations (a replica that was down through an update and
	// came back serving the old graph).
	w.Header().Set(GenerationHeader, strconv.FormatUint(h.gen, 10))
	val, coalesced, prof, err := s.plane.Run(w, r, q, h.gen, s.engineBackend(q, h))
	if err != nil {
		return
	}
	s.account(q, h, val, coalesced)
	WriteJSON(w, http.StatusOK, q.response(val, coalesced, prof))
}

// engineBackend answers q on h's engine: the backend of the node's
// POST queries and of its subscription pushes.
func (s *Server) engineBackend(q *Query, h *engineHandle) Backend {
	return Backend{
		Span:    "engine_compute",
		Fail:    s.writeQueryError,
		Compute: func(ctx context.Context) (any, error) { return q.compute(ctx, h) },
		pin:     h,
	}
}

// account records the node's per-path counters for one answered query.
// Followers shared the leader's work, so they add only to the indexed
// query count: one probe per (candidate, step) pair and one N-walk
// residual sample regardless of candidate count on the index path, and
// the adaptive serving counters.
func (s *Server) account(q *Query, h *engineHandle, val any, coalesced bool) {
	if q.algo == usimrank.AlgIndexed {
		s.indexQueries.Add(1)
		if !coalesced {
			cands := len(q.candidates)
			if q.candidates == nil {
				cands = h.graph.NumVertices()
			}
			s.indexRowsProbed.Add(uint64(cands) * uint64(h.eng.Options().Steps+1))
			s.indexResidualWalks.Add(uint64(h.idx.Samples()))
		}
	}
	if a, ok := val.(adaptiveAnswer); ok && !coalesced {
		s.metrics.AdaptiveQueries.Add(1)
		s.metrics.AdaptiveRounds.Add(uint64(a.res.Rounds))
		if a.res.Partial {
			s.metrics.PartialResults.Add(1)
		}
		if a.res.Converged && a.res.Walks > 0 {
			s.metrics.AdaptiveEarlyStops.Add(1)
		}
	}
}

// writeQueryError maps an engine/context error to the JSON error
// envelope.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.DeadlineExceeded.Add(1)
		WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
			"query exceeded its deadline; raise timeout_ms or the server's -timeout")
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable,
			"query cancelled (client disconnected or server shutting down)")
	default:
		WriteError(w, http.StatusInternalServerError, CodeEngineError, err.Error())
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

// WarmFilters pre-builds the resident engine's SR-SP filter pools (the
// boot-time counterpart of reload's "warm":true).
func (s *Server) WarmFilters() {
	h := s.engine()
	defer h.release()
	h.eng.WarmFilters()
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Graph == "" {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, `"graph" is required`)
		return
	}
	resp, err := s.Reload(req.Graph, req.Warm, req.Index)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// Reload builds a fresh engine from the graph file at path (with the
// server's boot-time engine options), optionally pre-builds its SR-SP
// filter pools, atomically swaps it in, and waits (bounded) for
// requests pinned to the old engine to drain. Serving continues
// throughout: queries admitted before the swap finish on the old
// engine, queries admitted after it run on the new one, and no query
// ever spans both.
//
// A non-empty indexPath loads a reverse-walk index for the new graph,
// validated against the new engine before the swap (a bad index fails
// the whole reload, leaving the old generation serving). An empty one
// drops any resident index: a reload starts a fresh engine lineage at
// generation 1, which the old index's stamped generation can never
// match.
func (s *Server) Reload(path string, warm bool, indexPath string) (*ReloadResponse, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()

	buildStart := time.Now()
	g, err := usimrank.LoadGraphFile(path)
	if err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	eng, err := usimrank.New(g, s.cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	var idx *usimrank.Index
	if indexPath != "" {
		if idx, err = usimrank.LoadIndexFile(indexPath); err != nil {
			return nil, fmt.Errorf("load index: %w", err)
		}
		if err := eng.CheckIndex(idx); err != nil {
			idx.Close()
			return nil, fmt.Errorf("index rejected: %w", err)
		}
	}
	if warm {
		eng.WarmFilters()
	}
	buildMs := time.Since(buildStart).Milliseconds()

	old := s.cur.Load()
	// The engine is new but the node is not: its lifetime counters go on
	// from the replaced engine's, as an update's successor's do.
	eng.ContinueCounters(old.eng)
	next := newEngineHandle(eng, g, path, old.gen+1, idx, nil)
	s.cur.Store(next)
	// Drop the server's ownership reference. The reload starts a new
	// index lineage, so once the old lineage's last handle drains,
	// release closes the replaced index's mapping.
	old.release()
	// A reload replaces the whole graph, so every subscription's answer
	// may have changed: no invalidation set exists, wake them all.
	woken := s.subs.WakeAll(next.gen)
	drained := old.awaitDrain(s.cfg.DrainTimeout)
	s.reloads.Add(1)
	s.cfg.Logger.Printf("reload: generation %d -> %d (%s, %d vertices, %d arcs, build %dms, drained=%v, subs woken=%d)",
		old.gen, next.gen, path, g.NumVertices(), g.NumArcs(), buildMs, drained, woken)
	return &ReloadResponse{
		Generation: next.gen,
		Vertices:   g.NumVertices(),
		Arcs:       g.NumArcs(),
		BuildMs:    buildMs,
		Drained:    drained,
	}, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if s.cfg.MaxUpdateBatch < 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			"incremental updates are disabled on this server (-max-update-batch < 0); use /v1/admin/reload")
		return
	}
	if len(req.Updates) == 0 {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, `"updates" is required and must be non-empty`)
		return
	}
	if len(req.Updates) > s.cfg.MaxUpdateBatch {
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch of %d updates exceeds -max-update-batch %d (split it, or reload)",
				len(req.Updates), s.cfg.MaxUpdateBatch))
		return
	}
	ups := make([]usimrank.ArcUpdate, len(req.Updates))
	for i, u := range req.Updates {
		op, err := usimrank.ParseUpdateOp(u.Op)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("updates[%d]: %v", i, err))
			return
		}
		ups[i] = usimrank.ArcUpdate{Op: op, U: u.U, V: u.V, P: u.P}
	}
	resp, err := s.ApplyUpdates(ups)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// updatePhases names the write-path phases of an incremental update,
// the label values of usimrank_update_phase_seconds_total: the engine's
// (core.UpdatePhases, in order), then the index patch and the drain of
// the old generation.
var updatePhases = [...]string{"compact", "evict_bfs", "touch_bfs", "row_carry", "filters", "index_patch", "drain"}

// ApplyUpdates applies a batch of arc mutations incrementally: a
// successor engine is derived from the resident one — mutated CSR
// compacted from the update overlay, row-cache entries outside the walk
// horizon of every touched arc carried over warm, built SR-SP filter
// pools patched by invalidating each touched vertex (re-sampled by the
// first SR-SP query that reaches it, never by the update) — and swapped
// in exactly like a reload: new handle published first, old engine
// drained by its pinned requests. Queries admitted before the swap
// finish on the old generation, queries admitted after it run on the
// new one, and the coalescing keys' generation component keeps the two
// from ever sharing a flight. The update log line and
// usimrank_update_phase_seconds_total split each update into the
// engine's phases (UpdateStats.Phases), the index patch and the drain.
//
// Contrast with Reload: a reload rebuilds everything from a file
// (cold caches, full filter build); an update touches only state the
// mutation can have changed, which is why a single-arc change is
// orders of magnitude cheaper.
func (s *Server) ApplyUpdates(ups []usimrank.ArcUpdate) (*UpdateResponse, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()

	applyStart := time.Now()
	old := s.cur.Load()
	derived, stats, err := old.eng.ApplyUpdates(ups)
	if err != nil {
		return nil, err
	}
	// The resident index rides the swap: patch it onto the successor
	// generation before publishing, so there is never a window where the
	// current handle pairs a new engine with an index the generation
	// check would reject. A patch failure fails the whole update — the
	// old generation keeps serving, index included.
	var idx *usimrank.Index
	idxPatched := 0
	var idxTime time.Duration
	if old.idx != nil {
		idxStart := time.Now()
		if idx, idxPatched, err = usimrank.PatchIndex(old.idx, derived, old.graph, ups); err != nil {
			return nil, fmt.Errorf("patch index: %w", err)
		}
		idxTime = time.Since(idxStart)
		s.indexRowsPatched.Add(uint64(idxPatched))
	}
	applyMs := time.Since(applyStart).Milliseconds()

	g := derived.Graph()
	// The patched index shares the old one's mapping, so next joins the
	// old handle's lineage and the mapping stays open across the swap.
	next := newEngineHandle(derived, g, old.source, old.gen+1, idx, old.lineage)
	s.cur.Store(next)
	old.release() // drop the server's ownership reference
	// Wake exactly the subscriptions whose answer can have changed: the
	// engine's invalidation BFS says which sources reach a net-changed
	// arc head within the walk horizon (empty for a netted-out batch),
	// and the registry intersects that set with its vertex index in one
	// lookup per touched vertex. Woken after the swap is published, so a
	// woken stream always finds the new generation current.
	woken := s.subs.Wake(stats.TouchedSources, next.gen)
	drainStart := time.Now()
	drained := old.awaitDrain(s.cfg.DrainTimeout)
	ph := stats.Phases
	phases := [len(updatePhases)]time.Duration{ph.Compact, ph.EvictBFS, ph.TouchBFS, ph.RowCarry, ph.Filters, idxTime, time.Since(drainStart)}
	var phaseLog strings.Builder
	for i, d := range phases {
		s.updatePhaseNs[i].Add(int64(d))
		fmt.Fprintf(&phaseLog, " %s=%v", updatePhases[i], d.Round(time.Microsecond))
	}
	s.updates.Add(1)
	s.arcsUpdated.Add(uint64(stats.Applied))
	s.cfg.Logger.Printf("update: generation %d -> %d (%d arcs changed, rows evicted %d / retained %d, filters patched %v, index rows patched %d, apply %dms, drained=%v, subs woken=%d/%d touched; phases%s)",
		old.gen, next.gen, stats.Applied, stats.RowsEvicted, stats.RowsRetained, stats.FiltersPatched, idxPatched, applyMs, drained, woken, len(stats.TouchedSources), phaseLog.String())
	return &UpdateResponse{
		Generation:       next.gen,
		Applied:          stats.Applied,
		Vertices:         g.NumVertices(),
		Arcs:             g.NumArcs(),
		RowsEvicted:      stats.RowsEvicted,
		RowsRetained:     stats.RowsRetained,
		FiltersPatched:   stats.FiltersPatched,
		IndexRowsPatched: idxPatched,
		ApplyMs:          applyMs,
		Drained:          drained,
	}, nil
}

// DigestInts returns a fixed-size FNV-128a digest of an operand list,
// keeping coalescing keys O(1) in payload size (a 100k-pair batch must
// not build and compare megabyte key strings under the flight mutex).
func DigestInts(xs []int) string {
	h := fnv.New128a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MaxBodyBytes bounds request bodies (8 MiB ≈ a ~350k-pair batch):
// admission control is pointless if an unbounded JSON body can balloon
// memory before the semaphore is ever consulted.
const MaxBodyBytes = 8 << 20

// decodeBody decodes a JSON request body, writing a 400 on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON body: "+err.Error())
		return false
	}
	return true
}

// MarshalBody encodes v exactly as WriteJSON would write it —
// two-space-indented, trailing newline. Subscription pushes go through
// it so a pushed payload is byte-identical to the body of a cold query
// of the same shape at the same generation.
func MarshalBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSON writes v as the two-space-indented JSON the whole serving
// plane (single node and cluster coordinator) emits. Merged cluster
// responses must encode exactly like single-node ones, so every
// response body flows through this one encoder (and MarshalBody for
// subscription pushes).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, err := MarshalBody(v)
	if err != nil {
		return
	}
	_, _ = w.Write(body)
}

// WriteError writes the uniform error envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// logLoop periodically logs a one-line serving summary until Close.
func (s *Server) logLoop() {
	t := time.NewTicker(s.cfg.LogEvery)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			st := s.Stats()
			var queries, errs uint64
			for _, q := range st.Queries {
				queries += q.Count
				errs += q.Errors
			}
			s.cfg.Logger.Printf(
				"stats: gen=%d queries=%d errors=%d in_flight=%d coalesce_rate=%.2f rejected=%d deadline=%d row_cache=%d/%d evictions=%d",
				st.Graph.Generation, queries, errs, st.Serving.InFlight,
				st.Coalescing.HitRate, st.Serving.AdmissionRejected,
				st.Serving.DeadlineExceeded, st.Engine.RowCacheLen,
				st.Engine.RowCacheCap, st.Engine.RowCacheEvictions)
		}
	}
}
