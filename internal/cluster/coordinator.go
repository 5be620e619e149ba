package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"usimrank"
	"usimrank/internal/obs"
	"usimrank/internal/server"
	"usimrank/internal/sub"
)

// Config configures a Coordinator. Shards is required; everything else
// defaults to sane serving values.
type Config struct {
	// Shards[i] lists shard i's endpoint base URLs, primary first, then
	// replicas. Every endpoint of a shard must serve the same graph
	// with the same engine options and seed — the determinism guarantee
	// rests on it.
	Shards [][]string
	// ShardTimeout bounds each downstream endpoint attempt. Default 25s.
	ShardTimeout time.Duration
	// HedgeDelay is how long the primary may stay silent before the
	// first replica is asked in parallel. Default 500ms; it never fires
	// for shards without replicas.
	HedgeDelay time.Duration
	// QueryTimeout is the coordinator's per-request deadline; requests
	// may lower (but not raise) it via timeout_ms. Default 30s.
	QueryTimeout time.Duration
	// MaxInFlight bounds concurrently admitted queries. Default 256 (the
	// coordinator is I/O-bound; the real compute bound lives on the
	// shards' own admission gates).
	MaxInFlight int
	// AdmissionWait is how long a request may wait for an in-flight
	// slot before 429. Default 100ms; negative rejects immediately.
	AdmissionWait time.Duration
	// AdmissionReserve carves this many of MaxInFlight's slots into a
	// reserve only adaptive (eps-bearing) queries may use when the
	// general pool is saturated — the coordinator-side twin of the node
	// server's reserve. Default 0 (no reserve).
	AdmissionReserve int
	// AdminProbes is how many times a skewed admin fan-out re-probes
	// shard generations (AdminProbeWait apart) before reporting a
	// generation-skew error. Default 3.
	AdminProbes    int
	AdminProbeWait time.Duration
	// HTTPClient overrides the downstream transport (tests inject
	// httptest clients). Default: a dedicated client with generous
	// connection pooling per endpoint.
	HTTPClient *http.Client
	// LogEvery, when positive, logs a one-line metrics summary at that
	// period.
	LogEvery time.Duration
	// Logger receives periodic summaries and admin events. Default:
	// stderr with an "usimd-coord " prefix.
	Logger *log.Logger
	// SlowQuery, when positive, arms tracing on every query and logs a
	// structured slow-query line (trace id, scatter span timings) for
	// queries at or above the threshold. 0 disables.
	SlowQuery time.Duration
	// LogJSON emits slow-query lines as single-line JSON objects
	// instead of key=value text.
	LogJSON bool
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 25 * time.Second
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 500 * time.Millisecond
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 256
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = 100 * time.Millisecond
	}
	if c.AdminProbes < 1 {
		c.AdminProbes = 3
	}
	if c.AdminProbeWait <= 0 {
		c.AdminProbeWait = 200 * time.Millisecond
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "usimd-coord ", log.LstdFlags)
	}
	return c
}

// clusterState is the coordinator's consistent view of the shard
// fleet, swapped atomically by admin fan-outs.
type clusterState struct {
	gen      uint64
	vertices int
	arcs     int
}

// Coordinator scatter-gathers the five query shapes over a fleet of
// ordinary usimd shard nodes and merges the answers deterministically
// (see doc.go for the shard-map and merge contracts). It reuses the
// single-node serving machinery — request coalescing, admission
// control, latency histograms (kept per shape and per downstream
// shard) — and serialises admin mutations exactly like a single node.
type Coordinator struct {
	cfg    Config
	shards *ShardMap
	client *Client

	state    atomic.Pointer[clusterState]
	adminOps atomic.Uint64
	// adminMu serialises cluster-wide mutations, the same invariant the
	// single node enforces per engine: two fan-outs interleaving across
	// shards is exactly the generation-skew this coordinator exists to
	// prevent.
	adminMu sync.Mutex

	// plane runs every query through the node's own pipeline (see
	// server.Plane) with the scatter as backend; metrics is its registry.
	plane   *server.Plane
	metrics *server.MetricsRegistry

	// subs tracks live relay streams: active count for stats, shutdown
	// broadcast and drain for graceful exit. Vertex-level wake filtering
	// happens on the owning nodes, so relays register no vertices here.
	subs *sub.Registry

	// The stats endpoint's endpoint-health probe is cached briefly and
	// single-flighted behind probeMu: /v1/stats bypasses admission (it
	// must work when the query plane is saturated), so an aggressive
	// scraper must not multiply into shards×replicas downstream probes
	// per scrape, nor pile up goroutines behind one hung endpoint.
	probeMu    sync.Mutex
	probeAt    time.Time
	probeCache []probedHealth

	baseCtx context.Context
	cancel  context.CancelFunc

	start time.Time
	mux   *http.ServeMux
}

// New builds a coordinator over cfg.Shards and probes every endpoint:
// each shard needs at least one reachable endpoint, and all reachable
// endpoints must agree on the graph generation, vertex count, and arc
// count (a fleet already skewed at boot cannot serve deterministic
// answers).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	replicas := make([]int, len(cfg.Shards))
	for i, eps := range cfg.Shards {
		if len(eps) == 0 {
			return nil, fmt.Errorf("cluster: shard%d has no endpoints", i)
		}
		replicas[i] = len(eps) - 1
	}
	sm, err := NewShardMap(len(cfg.Shards), replicas)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	metrics := server.NewMetricsRegistry()
	co := &Coordinator{
		cfg:    cfg,
		shards: sm,
		client: NewClient(cfg.Shards, cfg.HTTPClient, cfg.ShardTimeout, cfg.HedgeDelay),
		plane: server.NewPlane(ctx, "coordinator", server.Config{
			QueryTimeout: cfg.QueryTimeout, MaxInFlight: cfg.MaxInFlight,
			AdmissionReserve: cfg.AdmissionReserve, AdmissionWait: cfg.AdmissionWait,
			SlowQuery: cfg.SlowQuery, LogJSON: cfg.LogJSON, Logger: cfg.Logger,
		}, metrics),
		metrics: metrics,
		subs:    sub.NewRegistry(),
		baseCtx: ctx,
		cancel:  cancel,
		start:   time.Now(),
	}
	st, err := co.bootProbe()
	if err != nil {
		cancel()
		return nil, err
	}
	co.state.Store(st)

	co.mux = http.NewServeMux()
	co.mux.HandleFunc("POST /v1/score", co.handleScore)
	co.mux.HandleFunc("POST /v1/source", co.handleSource)
	co.mux.HandleFunc("POST /v1/topk", co.handleTopK)
	co.mux.HandleFunc("POST /v1/batch", co.handleBatch)
	co.mux.HandleFunc("GET /v1/stats", co.handleStats)
	co.mux.HandleFunc("GET /v1/subscribe", co.handleSubscribe)
	co.mux.HandleFunc("GET /metrics", co.handleMetrics)
	co.mux.HandleFunc("POST /v1/admin/reload", co.handleReload)
	co.mux.HandleFunc("POST /v1/admin/update", co.handleUpdate)
	co.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	co.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound, "unknown route "+r.URL.Path)
	})
	if cfg.LogEvery > 0 {
		go co.logLoop()
	}
	return co, nil
}

// Handler returns the coordinator's HTTP handler.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { co.mux.ServeHTTP(w, r) }

// Close cancels in-flight scatter work and the periodic logger.
func (co *Coordinator) Close() { co.cancel() }

// Generation returns the coordinator's view of the cluster graph
// generation.
func (co *Coordinator) Generation() uint64 { return co.state.Load().gen }

func shardName(i int) string { return "shard" + strconv.Itoa(i) }

// bootProbe reads every endpoint's stats and folds them into the boot
// cluster state.
func (co *Coordinator) bootProbe() (*clusterState, error) {
	health := co.probeAll(co.baseCtx)
	var st *clusterState
	for _, h := range health {
		if !h.Reachable {
			continue
		}
		if st == nil {
			st = &clusterState{gen: h.Generation, vertices: h.vertices, arcs: h.arcs}
			continue
		}
		if h.Generation != st.gen || h.vertices != st.vertices || h.arcs != st.arcs {
			return nil, fmt.Errorf(
				"cluster: boot generation skew: %s %s at generation %d (%d vertices), fleet at generation %d (%d vertices)",
				shardName(h.Shard), h.URL, h.Generation, h.vertices, st.gen, st.vertices)
		}
	}
	reachable := make(map[int]bool)
	for _, h := range health {
		if h.Reachable {
			reachable[h.Shard] = true
		}
	}
	for s := 0; s < co.shards.Shards(); s++ {
		if !reachable[s] {
			return nil, fmt.Errorf("cluster: %s has no reachable endpoint", shardName(s))
		}
	}
	for _, h := range health {
		if !h.Reachable {
			co.cfg.Logger.Printf("boot: %s %s unreachable (%s); serving degraded until it returns",
				shardName(h.Shard), h.URL, h.Error)
		}
	}
	return st, nil
}

// probedHealth augments the wire ShardHealth with the graph figures
// needed internally.
type probedHealth struct {
	ShardHealth
	vertices, arcs int
}

// probeAll reads /v1/stats from every endpoint concurrently.
func (co *Coordinator) probeAll(ctx context.Context) []probedHealth {
	type slot struct{ shard, replica int }
	var slots []slot
	for s, eps := range co.cfg.Shards {
		for r := range eps {
			slots = append(slots, slot{s, r})
		}
	}
	out := make([]probedHealth, len(slots))
	var wg sync.WaitGroup
	for i, sl := range slots {
		wg.Add(1)
		go func(i int, sl slot) {
			defer wg.Done()
			url := co.cfg.Shards[sl.shard][sl.replica]
			role := "primary"
			if sl.replica > 0 {
				role = "replica"
			}
			h := probedHealth{ShardHealth: ShardHealth{Shard: sl.shard, URL: url, Role: role}}
			resp, err := co.client.DoEndpoint(ctx, url, "GET", "/v1/stats", nil)
			if err == nil && resp.Status == http.StatusOK {
				var st server.StatsResponse
				if jerr := json.Unmarshal(resp.Body, &st); jerr == nil {
					h.Reachable = true
					h.Generation = st.Graph.Generation
					h.vertices = st.Graph.Vertices
					h.arcs = st.Graph.Arcs
				} else {
					h.Error = "bad stats body: " + jerr.Error()
				}
			} else if err != nil {
				h.Error = err.Error()
			} else {
				h.Error = fmt.Sprintf("status %d", resp.Status)
			}
			out[i] = h
		}(i, sl)
	}
	wg.Wait()
	return out
}

// ---- query plumbing ----------------------------------------------------

// readBody reads a bounded request body for decode-then-relay.
func (co *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	return b, true
}

// decodeStrict mirrors the single node's strict JSON decoding
// (unknown fields rejected) so the coordinator 400s exactly where a
// shard would.
func decodeStrict(w http.ResponseWriter, raw []byte, into any) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, "bad JSON body: "+err.Error())
		return false
	}
	return true
}

// queryRequest is a v1 query body: it validates itself into a
// server.Query with the node's own validator.
type queryRequest interface {
	Query() (*server.Query, error)
}

// decodeQuery reads, strictly decodes and validates a query body,
// writing the 400 itself: the coordinator rejects exactly the requests
// a node would, with the same bytes. Checks that need the graph (vertex
// ranges, the index) are the owning shard's, relayed verbatim.
func (co *Coordinator) decodeQuery(w http.ResponseWriter, r *http.Request, req queryRequest) ([]byte, *server.Query, bool) {
	raw, ok := co.readBody(w, r)
	if !ok || !decodeStrict(w, raw, req) {
		return nil, nil, false
	}
	q, err := req.Query()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
		return nil, nil, false
	}
	return raw, q, true
}

// backend is the coordinator's server.Backend: a downstream fan-out
// under a scatter span, so per-shard and per-attempt spans (and the
// shards' own remote profiles) nest under it.
func (co *Coordinator) backend(compute func(ctx context.Context) (any, error)) server.Backend {
	return server.Backend{Span: "scatter", Fail: co.writeClusterError, Compute: compute}
}

// maxSourcesPerChunk bounds one coordinator-built sources array. A
// 10-digit vertex id costs ≤ 11 JSON bytes, so 200k sources stay near
// 2 MiB — comfortably inside the node-side 8 MiB request cap however
// large the graph grows. A variable so tests can shrink it and prove
// chunked merges stay bit-identical.
var maxSourcesPerChunk = 200_000

// relayError carries a definitive non-200 downstream response (a
// shard's 400, say) through the flight layer so it is relayed, not
// wrapped.
type relayError struct{ resp *ShardResponse }

func (e *relayError) Error() string {
	return fmt.Sprintf("downstream status %d from %s", e.resp.Status, e.resp.URL)
}

// writeClusterError maps a scatter failure to the error envelope:
// shard exhaustion becomes a structured 502 (or 504 when every attempt
// died on the per-shard deadline) naming the shard; definitive
// downstream errors are relayed verbatim.
func (co *Coordinator) writeClusterError(w http.ResponseWriter, err error) {
	var re *relayError
	if errors.As(err, &re) {
		relay(w, re.resp)
		return
	}
	var mg *mixedGenerationError
	if errors.As(err, &mg) {
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeUnavailable, mg.Error())
		return
	}
	var se *ShardError
	if errors.As(err, &se) {
		if allCanceled(se) {
			// Pure cancellation fallout (coordinator shutdown, client
			// gone) is not the shard's fault — don't blame one.
			server.WriteError(w, http.StatusServiceUnavailable, server.CodeUnavailable,
				"query cancelled (client disconnected or coordinator shutting down)")
			return
		}
		detail := server.ErrorDetail{Message: se.Error(), Shard: shardName(se.Shard)}
		if se.AllDeadline() {
			co.metrics.DeadlineExceeded.Add(1)
			detail.Code = server.CodeDeadlineExceeded
			server.WriteJSON(w, http.StatusGatewayTimeout, server.ErrorResponse{Error: detail})
			return
		}
		detail.Code = server.CodeShardUnavailable
		server.WriteJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: detail})
		return
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		co.metrics.DeadlineExceeded.Add(1)
		server.WriteError(w, http.StatusGatewayTimeout, server.CodeDeadlineExceeded,
			"query exceeded its deadline; raise timeout_ms or the coordinator's -timeout")
	case errors.Is(err, context.Canceled):
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeUnavailable,
			"query cancelled (client disconnected or coordinator shutting down)")
	default:
		server.WriteError(w, http.StatusInternalServerError, server.CodeEngineError, err.Error())
	}
}

// relay writes a downstream response verbatim: pass-through shapes owe
// their byte-identity guarantee to this function not touching the
// body.
func relay(w http.ResponseWriter, resp *ShardResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// doShard is Client.Do plus the per-downstream-shard latency
// histogram ("shard2/score" cells in /v1/stats).
func (co *Coordinator) doShard(ctx context.Context, shard int, shape, path string, body []byte) (*ShardResponse, error) {
	start := time.Now()
	resp, err := co.client.Do(ctx, shard, "POST", path, body, co.Generation())
	co.metrics.RecordDownstream(shardName(shard), shape, time.Since(start), err)
	return resp, err
}

// passThrough executes a single-shard shape: the shard owning source
// vertex u answers, and its definitive response (success or error) is
// relayed verbatim. A debug profile on this path is the NODE's profile
// riding the relayed body — the coordinator cannot splice its own spans
// into bytes it must not touch, so its scatter/attempt spans surface
// only via the slow-query log and an explicit Usimrank-Trace header.
func (co *Coordinator) passThrough(w http.ResponseWriter, r *http.Request, q *server.Query, u int, path string, raw []byte) {
	shard := co.shards.Of(u)
	val, _, _, err := co.plane.Run(w, r, q, co.Generation(), co.backend(func(ctx context.Context) (any, error) {
		sp := obs.SpanFromContext(ctx).Start(shardName(shard))
		resp, err := co.doShard(obs.ContextWithSpan(ctx, sp), shard, q.Shape, path, raw)
		sp.Error(err)
		sp.End()
		return resp, err
	}))
	if err != nil {
		return
	}
	resp := val.(*ShardResponse)
	// A relayed error is still an error the client received: the
	// flight reported it as a plain value (so it could be relayed
	// verbatim), but the stats must not read all-healthy while clients
	// stream 504s from the shards' own deadlines.
	if resp.Status >= 400 {
		co.metrics.CountError(q.Shape, q.Alg)
		if resp.Status == http.StatusGatewayTimeout {
			co.metrics.DeadlineExceeded.Add(1)
		}
	}
	relay(w, resp)
}

// scatterTask is one downstream request of a scatter: the target
// shard and the request body to send it.
type scatterTask struct {
	shard int
	body  []byte
}

// scatter fans the tasks out concurrently (each with hedged retry)
// and gathers the 200 bodies in task order. The first failure (by
// ascending task position, for determinism) cancels the siblings and
// is returned: a ShardError for an exhausted shard, a relayError for
// a definitive downstream error. Gathered answers must all carry the
// same graph generation: a scatter racing an admin mutation could
// otherwise merge old-graph and new-graph partials into a response no
// single node ever served, so a mixed gather fails with a transient
// mixedGenerationError (503) instead.
//
// Each task gets its own span under the flight's scatter span, named
// for the shard it targets; the client's endpoint attempts nest under
// it. When debug is set the shard's own execution profile is decoded
// from its 200 body and grafted onto the task span, so one debug
// response shows coordinator scatter, both shards' engine-compute
// spans, and the merge in a single connected tree.
func (co *Coordinator) scatter(ctx context.Context, shape, path string, tasks []scatterTask, debug bool) ([][]byte, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resps := make([]*ShardResponse, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task scatterTask) {
			defer wg.Done()
			sp := obs.SpanFromContext(ctx).Start(shardName(task.shard))
			defer sp.End()
			resp, err := co.doShard(obs.ContextWithSpan(ctx, sp), task.shard, shape, path, task.body)
			if err != nil {
				sp.Error(err)
				errs[i] = err
				cancel()
				return
			}
			if resp.Status != http.StatusOK {
				sp.Error(fmt.Errorf("status %d", resp.Status))
				errs[i] = &relayError{resp: resp}
				cancel()
				return
			}
			if debug && sp.Enabled() {
				var pr struct {
					Profile *obs.Profile `json:"profile"`
				}
				if jerr := json.Unmarshal(resp.Body, &pr); jerr == nil {
					sp.AttachRemote(pr.Profile)
				}
			}
			resps[i] = resp
		}(i, task)
	}
	wg.Wait()
	if err := pickScatterError(errs); err != nil {
		return nil, err
	}
	var gen uint64
	bodies := make([][]byte, len(resps))
	for i, r := range resps {
		if r.Generation != 0 {
			if gen == 0 {
				gen = r.Generation
			} else if r.Generation != gen {
				return nil, &mixedGenerationError{a: gen, b: r.Generation}
			}
		}
		bodies[i] = r.Body
	}
	return bodies, nil
}

// mixedGenerationError reports a gather whose partial answers span a
// graph mutation. Transient by construction: once the admin fan-out
// settles, a retry gathers one generation.
type mixedGenerationError struct{ a, b uint64 }

func (e *mixedGenerationError) Error() string {
	return fmt.Sprintf("scatter spanned a graph mutation: partial answers at generations %d and %d; retry", e.a, e.b)
}

// pickScatterError chooses the root-cause failure of a scatter: the
// first shard's cancel() makes every sibling fail with a cancellation
// too, and reporting one of those would hide the shard that actually
// broke. Definitive downstream errors outrank shard exhaustion, which
// outranks cancellation fallout; ties break on ascending position so
// the choice is deterministic.
func pickScatterError(errs []error) error {
	var firstShard, firstAny error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstAny == nil {
			firstAny = err
		}
		var re *relayError
		if errors.As(err, &re) {
			return err
		}
		var se *ShardError
		if firstShard == nil && errors.As(err, &se) && !allCanceled(se) {
			firstShard = err
		}
	}
	if firstShard != nil {
		return firstShard
	}
	return firstAny
}

// allCanceled reports whether a shard's failure is pure cancellation
// fallout from a sibling's cancel.
func allCanceled(se *ShardError) bool {
	for _, a := range se.Attempts {
		if !errors.Is(a.Err, context.Canceled) {
			return false
		}
	}
	return len(se.Attempts) > 0
}

// ---- the five query shapes ---------------------------------------------

func (co *Coordinator) handleScore(w http.ResponseWriter, r *http.Request) {
	var req server.ScoreRequest
	if raw, q, ok := co.decodeQuery(w, r, &req); ok {
		co.passThrough(w, r, q, req.U, "/v1/score", raw)
	}
}

// handleSource routes "indexed" like any other source query: the owning
// shard answers from its partition's index (each node serves the index
// built for its own graph) or rejects it with 400 when it holds none.
func (co *Coordinator) handleSource(w http.ResponseWriter, r *http.Request) {
	var req server.SourceRequest
	if raw, q, ok := co.decodeQuery(w, r, &req); ok {
		co.passThrough(w, r, q, req.U, "/v1/source", raw)
	}
}

func (co *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req server.TopKRequest
	raw, q, ok := co.decodeQuery(w, r, &req)
	if !ok {
		return
	}
	if req.U != nil {
		co.passThrough(w, r, q, *req.U, "/v1/topk", raw)
		return
	}

	// Pairs: scatter the source partition, k-way merge the partial
	// top-k lists under the canonical order.
	st := co.state.Load()
	val, coalesced, prof, err := co.plane.Run(w, r, q, st.gen, co.backend(func(ctx context.Context) (any, error) {
		// The O(V) partition and the scatter bodies are built inside
		// the flight, so coalescing followers joining this key pay
		// nothing for work the leader's tasks already carry.
		var parts [][]int
		if req.Sources != nil {
			parts = make([][]int, co.shards.Shards())
			for _, u := range req.Sources {
				s := co.shards.Of(u)
				parts[s] = append(parts[s], u)
			}
		} else {
			parts = co.shards.Partition(st.vertices)
		}
		// Chunk each shard's source list so coordinator-built bodies
		// never outgrow the node-side request cap on huge graphs; the
		// merge is associative under the canonical order, so chunked
		// partials fold into exactly the same top-k.
		var tasks []scatterTask
		for s, p := range parts {
			for len(p) > 0 {
				chunk := p
				if len(chunk) > maxSourcesPerChunk {
					chunk = chunk[:maxSourcesPerChunk]
				}
				p = p[len(chunk):]
				body, err := json.Marshal(server.TopKRequest{Alg: req.Alg, K: req.K, Sources: chunk, Eps: req.Eps, Delta: req.Delta, TimeoutMs: req.TimeoutMs, Debug: req.Debug})
				if err != nil {
					return nil, err
				}
				tasks = append(tasks, scatterTask{shard: s, body: body})
			}
		}
		bodies, err := co.scatter(ctx, "topk", "/v1/topk", tasks, req.Debug)
		if err != nil {
			return nil, err
		}
		lists := make([][]server.PairScore, len(bodies))
		merged := mergedTopK{}
		for i, b := range bodies {
			var resp server.TopKResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, fmt.Errorf("%s: bad top-k body: %w", shardName(tasks[i].shard), err)
			}
			lists[i] = resp.Results
			// Fold each shard's accuracy report into the cluster-wide
			// one: the merged ranking is only as tight as the loosest
			// shard (radius = max), converged only if every shard
			// converged, and partial as soon as any shard degraded. The
			// scatter gathered every body (a failed shard fails the whole
			// query), so a partial merge never hides a missing shard.
			if resp.Adaptive != nil {
				if merged.adaptive == nil {
					merged.adaptive = &server.AdaptiveInfo{
						Eps: resp.Adaptive.Eps, Delta: resp.Adaptive.Delta,
						Converged: true,
					}
				}
				if resp.Adaptive.Radius > merged.adaptive.Radius {
					merged.adaptive.Radius = resp.Adaptive.Radius
				}
				merged.adaptive.Walks += resp.Adaptive.Walks
				if resp.Adaptive.Rounds > merged.adaptive.Rounds {
					merged.adaptive.Rounds = resp.Adaptive.Rounds
				}
				merged.adaptive.Converged = merged.adaptive.Converged && resp.Adaptive.Converged
				merged.partial = merged.partial || resp.Partial
			}
		}
		msp := obs.SpanFromContext(ctx).Start("merge")
		msp.Add("lists", int64(len(lists)))
		merged.results = mergeTopK(req.K, lists)
		msp.End()
		return merged, nil
	}))
	if err != nil {
		return
	}
	mg := val.(mergedTopK)
	server.WriteJSON(w, http.StatusOK, server.TopKResponse{
		Alg: q.Alg, U: nil, K: req.K,
		Results: mg.results, Coalesced: coalesced,
		Adaptive: mg.adaptive, Partial: mg.partial, Profile: prof,
	})
}

// mergedTopK bundles a merged pairs ranking with the shards' folded
// accuracy report through the flight's any-typed value.
type mergedTopK struct {
	results  []server.PairScore
	adaptive *server.AdaptiveInfo
	partial  bool
}

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	_, q, ok := co.decodeQuery(w, r, &req)
	if !ok {
		return
	}
	val, coalesced, prof, err := co.plane.Run(w, r, q, co.Generation(), co.backend(func(ctx context.Context) (any, error) {
		// Plan and marshal inside the flight, like the pairs top-k
		// path: coalescing followers must not duplicate the regroup of
		// a near-cap pairs payload just to throw it away.
		plan := planBatch(co.shards, req.Pairs)
		// Sub-batches can only shrink the client's own payload (which
		// fit under the coordinator's body cap to get here), so no
		// chunking is needed on this path.
		tasks := make([]scatterTask, len(plan.shards))
		for i, s := range plan.shards {
			body, err := json.Marshal(server.BatchRequest{Alg: req.Alg, Pairs: plan.pairs[s], TimeoutMs: req.TimeoutMs, Debug: req.Debug})
			if err != nil {
				return nil, err
			}
			tasks[i] = scatterTask{shard: s, body: body}
		}
		bodies, err := co.scatter(ctx, "batch", "/v1/batch", tasks, req.Debug)
		if err != nil {
			return nil, err
		}
		msp := obs.SpanFromContext(ctx).Start("merge")
		msp.Add("lists", int64(len(bodies)))
		defer msp.End()
		out := make([]server.BatchPairResult, len(req.Pairs))
		for i, b := range bodies {
			s := plan.shards[i]
			var resp server.BatchResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, fmt.Errorf("%s: bad batch body: %w", shardName(s), err)
			}
			if len(resp.Results) != len(plan.indices[s]) {
				return nil, fmt.Errorf("%s: %d batch results for %d pairs", shardName(s), len(resp.Results), len(plan.indices[s]))
			}
			for j, res := range resp.Results {
				out[plan.indices[s][j]] = res
			}
		}
		return out, nil
	}))
	if err != nil {
		return
	}
	server.WriteJSON(w, http.StatusOK, server.BatchResponse{
		Alg: q.Alg, Results: val.([]server.BatchPairResult), Coalesced: coalesced, Profile: prof,
	})
}

// ---- stats -------------------------------------------------------------

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, co.Stats())
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format: the coordinator's snapshot, written as it is read, then the
// Go runtime gauges. Unlike /v1/stats it never probes downstream
// endpoints — a scrape must stay cheap and local however unhealthy the
// fleet is.
func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := obs.NewPromWriter(w)
	co.snapshot(pw)
	obs.WriteRuntimeMetrics(pw)
}

// snapshot reads the coordinator's own metrics once for both views:
// the line that reads a value declares its Prometheus family and
// writes it when pw is non-nil, and the value fills the /v1/stats
// field. The serving registry contributes per-shape query families
// plus per-downstream-shard latency histograms; the fan-out client
// contributes hedge/failover counters per shard. It sends nothing
// downstream; Stats adds the endpoint health probe.
func (co *Coordinator) snapshot(pw *obs.PromWriter) StatsResponse {
	var out StatsResponse
	out.Serving, out.Coalescing, out.Queries = co.metrics.Snapshot(pw, co.cfg.MaxInFlight)
	out.UptimeSeconds = obs.Gauge(pw, "usimrank_uptime_seconds", "Seconds since the coordinator process started.", time.Since(co.start).Seconds())

	st := co.state.Load()
	endpoints := 0
	for _, eps := range co.cfg.Shards {
		endpoints += len(eps)
	}
	out.Cluster = ClusterInfo{
		Generation: obs.Gauge(pw, "usimrank_cluster_generation", "Coordinator's view of the cluster graph generation.", st.gen),
		Shards:     obs.Gauge(pw, "usimrank_cluster_shards", "Configured shard count.", co.shards.Shards()),
		Endpoints:  obs.Gauge(pw, "usimrank_cluster_endpoints", "Configured endpoint count across all shards.", endpoints),
		Vertices:   obs.Gauge(pw, "usimrank_graph_vertices", "Vertex count of the cluster graph.", st.vertices),
		Arcs:       obs.Gauge(pw, "usimrank_graph_arcs", "Arc count of the cluster graph.", st.arcs),
		AdminOps:   obs.Counter(pw, "usimrank_admin_ops_total", "Admin mutations applied across the fleet.", co.adminOps.Load()),
	}
	subs := server.SubscriptionStats(co.subs.Snapshot(pw))
	out.Subscriptions = &subs

	counters := co.client.Counters()
	f := pw.Family("usimrank_client_hedges_total", "counter", "Replica attempts launched by the hedge timer.")
	for s, c := range counters {
		obs.Sample(f, shardLabel(s), c.Hedges)
	}
	f = pw.Family("usimrank_client_failovers_total", "counter", "Replica attempts launched because an earlier attempt failed.")
	for s, c := range counters {
		obs.Sample(f, shardLabel(s), c.Failovers)
	}
	f = pw.Family("usimrank_client_stale_rejected_total", "counter", "Definitive downstream answers rejected for a stale graph generation.")
	for s, c := range counters {
		obs.Sample(f, shardLabel(s), c.StaleRejected)
	}
	return out
}

// shardLabel is the {shard} label set of shard s's client counters.
func shardLabel(s int) []obs.Label { return []obs.Label{{Key: "shard", Value: shardName(s)}} }

// statsProbeTTL and statsProbeTimeout bound the stats path's health
// probes: scrapes within the TTL share one probe result, and a hung
// endpoint can stall a probe by at most the timeout (not the full
// per-shard budget a real query deserves).
const (
	statsProbeTTL     = 2 * time.Second
	statsProbeTimeout = 3 * time.Second
)

// cachedProbe returns a recent endpoint-health probe, refreshing it
// (single-flighted) when stale. The refresh runs under the
// coordinator's own context, never a scraper's: a monitoring client
// with a tight timeout disconnecting mid-probe must not poison the
// cache with an all-unreachable snapshot for the next TTL.
func (co *Coordinator) cachedProbe() []probedHealth {
	co.probeMu.Lock()
	defer co.probeMu.Unlock()
	if co.probeCache != nil && time.Since(co.probeAt) < statsProbeTTL {
		return co.probeCache
	}
	pctx, cancel := context.WithTimeout(co.baseCtx, statsProbeTimeout)
	defer cancel()
	co.probeCache = co.probeAll(pctx)
	co.probeAt = time.Now()
	return co.probeCache
}

// invalidateProbeCache drops the cached health snapshot — admin
// mutations change every endpoint's generation, and stats must not
// report the old one for a TTL afterwards.
func (co *Coordinator) invalidateProbeCache() {
	co.probeMu.Lock()
	co.probeCache = nil
	co.probeMu.Unlock()
}

// Stats assembles the coordinator's /v1/stats snapshot: its own
// metrics plus a live probe of every endpoint's health and generation
// (briefly cached; see cachedProbe).
func (co *Coordinator) Stats() StatsResponse {
	out := co.snapshot(nil)
	probed := co.cachedProbe()
	out.Shards = make([]ShardHealth, len(probed))
	for i, h := range probed {
		out.Shards[i] = h.ShardHealth
	}
	sort.Slice(out.Shards, func(i, j int) bool {
		if out.Shards[i].Shard != out.Shards[j].Shard {
			return out.Shards[i].Shard < out.Shards[j].Shard
		}
		return out.Shards[i].URL < out.Shards[j].URL
	})
	return out
}

// ---- transactional admin fan-out ---------------------------------------

func (co *Coordinator) handleReload(w http.ResponseWriter, r *http.Request) {
	raw, ok := co.readBody(w, r)
	if !ok {
		return
	}
	var req server.ReloadRequest
	if !decodeStrict(w, raw, &req) {
		return
	}
	if req.Graph == "" {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, `"graph" is required`)
		return
	}
	co.adminFanout(w, r, "/v1/admin/reload", raw)
}

func (co *Coordinator) handleUpdate(w http.ResponseWriter, r *http.Request) {
	raw, ok := co.readBody(w, r)
	if !ok {
		return
	}
	var req server.UpdateRequest
	if !decodeStrict(w, raw, &req) {
		return
	}
	if len(req.Updates) == 0 {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, `"updates" is required and must be non-empty`)
		return
	}
	for i, u := range req.Updates {
		if _, err := usimrank.ParseUpdateOp(u.Op); err != nil {
			server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, fmt.Sprintf("updates[%d]: %v", i, err))
			return
		}
	}
	co.adminFanout(w, r, "/v1/admin/update", raw)
}

// endpointAck is one endpoint's raw admin outcome.
type endpointAck struct {
	shard, replica int
	url            string
	status         int
	body           []byte
	err            error
	generation     uint64
	vertices, arcs int
	drained        bool
}

// adminFanout applies one admin mutation transactionally across the
// fleet: the raw body is sent to EVERY endpoint (replicas serve the
// same traffic and must move in lockstep), and the fan-out succeeds
// only when all of them acknowledge the same successor generation.
// Divergence triggers a bounded re-probe (a response may have been
// lost after the mutation applied); if the fleet still disagrees, the
// coordinator reports a structured generation-skew error rather than
// serving from a torn cluster. Admin mutations are serialised behind
// one mutex — the same invariant the single node enforces — so two
// fan-outs can never interleave their swaps.
func (co *Coordinator) adminFanout(w http.ResponseWriter, r *http.Request, path string, raw []byte) {
	co.adminMu.Lock()
	defer co.adminMu.Unlock()

	old := co.state.Load()
	expect := old.gen + 1

	// The fan-out runs under a coordinator-owned context: an admin
	// client disconnecting mid-flight must not cancel half the fleet's
	// mutations and tear the cluster. Each endpoint attempt is still
	// bounded by the per-shard timeout.
	ctx, cancel := context.WithCancel(co.baseCtx)
	defer cancel()

	// An incoming trace header rides the fan-out: every endpoint's admin
	// spans nest under this root, so one trace shows the whole fleet
	// applying (or refusing) a mutation.
	if hdr := r.Header.Get(obs.TraceHeader); hdr != "" {
		id, parent, _ := obs.ParseTraceHeader(hdr)
		tr := obs.NewTrace(id, parent)
		root := tr.Start("admin " + path)
		defer root.End()
		ctx = obs.ContextWithSpan(ctx, root)
		w.Header().Set(obs.TraceHeader, tr.ID())
	}

	var acks []*endpointAck
	for s, eps := range co.cfg.Shards {
		for ri, url := range eps {
			acks = append(acks, &endpointAck{shard: s, replica: ri, url: url})
		}
	}
	var wg sync.WaitGroup
	for _, a := range acks {
		wg.Add(1)
		go func(a *endpointAck) {
			defer wg.Done()
			resp, err := co.client.DoEndpoint(ctx, a.url, "POST", path, raw)
			if err != nil {
				a.err = err
				return
			}
			a.status = resp.Status
			a.body = resp.Body
			if resp.Status == http.StatusOK {
				var ack struct {
					Generation uint64 `json:"generation"`
					Vertices   int    `json:"vertices"`
					Arcs       int    `json:"arcs"`
					Drained    bool   `json:"drained"`
				}
				if jerr := json.Unmarshal(resp.Body, &ack); jerr != nil {
					a.err = fmt.Errorf("bad admin ack: %w", jerr)
					return
				}
				a.generation = ack.Generation
				a.vertices = ack.Vertices
				a.arcs = ack.Arcs
				a.drained = ack.Drained
			}
		}(a)
	}
	wg.Wait()

	// Consistent rejection: every endpoint refused with the same
	// definitive status, nothing applied anywhere — relay it, no skew.
	allSameRejection := true
	for _, a := range acks {
		if a.err != nil || a.status == http.StatusOK || a.status >= 500 || a.status != acks[0].status {
			allSameRejection = false
			break
		}
	}
	if allSameRejection {
		relay(w, &ShardResponse{Status: acks[0].status, Body: acks[0].body, URL: acks[0].url})
		return
	}

	ok := true
	for _, a := range acks {
		if a.err != nil || a.status != http.StatusOK || a.generation != expect {
			ok = false
			break
		}
	}
	if !ok {
		// Some endpoint failed or answered a surprising generation. The
		// mutation may still have applied everywhere (a lost response);
		// re-probe until the fleet agrees or patience runs out.
		agreed, st := co.reprobe(ctx, expect)
		if !agreed {
			msg := co.skewMessage(path, expect, acks)
			co.cfg.Logger.Printf("admin %s: generation skew: %s", path, msg)
			server.WriteJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: server.ErrorDetail{
				Code:    server.CodeGenerationSkew,
				Message: msg,
			}})
			return
		}
		co.state.Store(st)
		co.invalidateProbeCache()
		co.adminOps.Add(1)
		co.cfg.Logger.Printf("admin %s: fleet converged at generation %d after re-probe", path, st.gen)
		server.WriteJSON(w, http.StatusOK, co.adminResponse(st, acks))
		return
	}

	st := &clusterState{gen: expect, vertices: acks[0].vertices, arcs: acks[0].arcs}
	co.state.Store(st)
	co.invalidateProbeCache()
	co.adminOps.Add(1)
	co.cfg.Logger.Printf("admin %s: generation %d -> %d across %d endpoints", path, old.gen, expect, len(acks))
	server.WriteJSON(w, http.StatusOK, co.adminResponse(st, acks))
}

// reprobe polls the fleet until every endpoint is reachable and
// agrees on one generation at or beyond expect, or the probe budget is
// spent. Accepting any agreed generation >= expect — not only expect
// itself — matters for self-healing: if the coordinator's own view
// ever fell behind (a lost ack on a previous mutation, or an operator
// mutating nodes directly), the fleet acks expect+1 or later while
// still in perfect lockstep, and insisting on the exact expected value
// would report generation-skew forever after. Agreement below expect
// is not adopted: it means this mutation did not land.
func (co *Coordinator) reprobe(ctx context.Context, expect uint64) (bool, *clusterState) {
	for attempt := 0; attempt < co.cfg.AdminProbes; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(co.cfg.AdminProbeWait):
			case <-ctx.Done():
				return false, nil
			}
		}
		health := co.probeAll(ctx)
		agreed := true
		var st *clusterState
		for _, h := range health {
			if !h.Reachable {
				agreed = false
				break
			}
			if st == nil {
				st = &clusterState{gen: h.Generation, vertices: h.vertices, arcs: h.arcs}
			} else if h.Generation != st.gen || h.vertices != st.vertices || h.arcs != st.arcs {
				// Same bar as the boot probe: generation numbers are
				// per-node counters, so two nodes can coincide on a
				// generation while holding different graphs — the
				// vertex/arc figures must agree too.
				agreed = false
				break
			}
		}
		if agreed && st != nil && st.gen >= expect {
			return true, st
		}
	}
	return false, nil
}

// skewMessage names every endpoint that diverged.
func (co *Coordinator) skewMessage(path string, expect uint64, acks []*endpointAck) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "admin %s did not reach generation %d on every endpoint:", path, expect)
	for _, a := range acks {
		switch {
		case a.err != nil:
			fmt.Fprintf(&b, " %s %s: %v;", shardName(a.shard), a.url, a.err)
		case a.status != http.StatusOK:
			fmt.Fprintf(&b, " %s %s: status %d: %s;", shardName(a.shard), a.url, a.status, firstLine(a.body))
		case a.generation != expect:
			fmt.Fprintf(&b, " %s %s: at generation %d;", shardName(a.shard), a.url, a.generation)
		}
	}
	b.WriteString(" the fleet may be torn — re-probe /v1/stats and reload the divergent nodes")
	return b.String()
}

func (co *Coordinator) adminResponse(st *clusterState, acks []*endpointAck) AdminResponse {
	out := AdminResponse{Generation: st.gen, Vertices: st.vertices, Arcs: st.arcs, Drained: true}
	for _, a := range acks {
		role := "primary"
		if a.replica > 0 {
			role = "replica"
		}
		out.Endpoints = append(out.Endpoints, EndpointAck{
			Shard: a.shard, URL: a.url, Role: role,
			Generation: st.gen, Drained: a.drained,
		})
		if a.status == http.StatusOK && !a.drained {
			out.Drained = false
		}
	}
	return out
}

// logLoop periodically logs a one-line serving summary until Close.
func (co *Coordinator) logLoop() {
	t := time.NewTicker(co.cfg.LogEvery)
	defer t.Stop()
	for {
		select {
		case <-co.baseCtx.Done():
			return
		case <-t.C:
			st := co.state.Load()
			sv, cs, _ := co.metrics.Snapshot(nil, co.cfg.MaxInFlight)
			co.cfg.Logger.Printf("stats: gen=%d shards=%d in_flight=%d coalesce_rate=%.2f rejected=%d deadline=%d",
				st.gen, co.shards.Shards(), sv.InFlight, cs.HitRate, sv.AdmissionRejected, sv.DeadlineExceeded)
		}
	}
}
