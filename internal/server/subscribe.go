package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"usimrank/internal/sub"
)

// GET /v1/subscribe — the continuous-query plane. A client opens one
// long-lived SSE stream per standing query shape and receives:
//
//   - an initial "snapshot" event carrying the answer at the current
//     generation (skipped when Last-Event-ID already matches it);
//   - "update" events whenever an admin mutation can have changed the
//     answer, each carrying the full recomputed body at the latest
//     generation (a burst of updates coalesces into one push);
//   - ": hb" comment frames as keep-alives on idle streams;
//   - a terminal "shutdown" ("gone", "error") event before the server
//     closes the stream.
//
// Every event's id is the graph generation its payload was computed
// at, and every payload is byte-identical to the response body of a
// cold POST query of the same shape at that generation. Reconnecting
// with Last-Event-ID resumes: the server re-sends a snapshot only when
// the generation moved while the client was away.
//
// Query parameters: shape=score|source|topk, alg (an algorithm name;
// the source-only "indexed" needs shape=source on an index-serving
// node), u, v (score only), k (topk only), candidates (source only,
// comma-separated), staleness_ms (how long the server may sit on a
// wake-up coalescing further generations before it must push; capped
// by -sub-max-staleness).

// Event names of the subscription stream.
const (
	EventSnapshot = "snapshot"
	EventUpdate   = "update"
	// EventShutdown is terminal: the server is draining; resubscribe
	// with Last-Event-ID to resume. EventGone is terminal: the watched
	// vertices no longer exist (a reload shrank the graph). EventError
	// is terminal: a push failed; the payload carries the error envelope.
	EventShutdown = "shutdown"
	EventGone     = "gone"
	EventError    = "error"
)

// Timeouts NewHTTPServer installs on every usimd listener.
const (
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers — the slowloris guard.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout reaps kept-alive connections with no request in
	// flight. It does not apply to a connection actively serving a
	// request, so subscription streams are unaffected.
	IdleTimeout = 120 * time.Second
)

// NewHTTPServer builds the http.Server every usimd process listens on.
// It deliberately sets no WriteTimeout: a blanket write deadline would
// kill every /v1/subscribe stream at the timeout no matter how healthy,
// since net/http arms it once per connection, not per write. Slow-peer
// protection comes from ReadHeaderTimeout and IdleTimeout instead;
// TestHTTPServerTimeouts pins the invariant.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// DrainSubscriptions tells every live subscription stream to send its
// terminal shutdown event and close, then waits (bounded by the drain
// timeout) for them to finish. Call it before http.Server.Shutdown:
// Shutdown waits for active connections, and an SSE stream left to its
// own devices never becomes inactive.
func (s *Server) DrainSubscriptions() bool {
	s.subs.Shutdown()
	return s.subs.AwaitIdle(s.cfg.DrainTimeout)
}

// watched is the vertex set whose touched-source membership forces a
// recompute. The invalidation BFS reports per-SIDE sources: an answer
// is bit-identical across an update only when every constituent
// source — each side of each pair the shape evaluates — stays outside
// the touched set. Score and candidate-restricted source enumerate
// their constituents; top-k of u and the unrestricted single-source
// vector evaluate a pair against EVERY vertex, so any touched v-side
// row can move their answer even when u itself is unaffected — they
// watch sub.AnyVertex and wake on every non-empty invalidation set.
func (q *Query) watched() []int32 {
	switch {
	case q.Shape == "score" && q.u == q.v:
		return []int32{int32(q.u)}
	case q.Shape == "score":
		return []int32{int32(q.u), int32(q.v)}
	case q.Shape == "source" && len(q.candidates) > 0:
		vs := []int32{int32(q.u)}
		for _, c := range q.candidates {
			if c != q.u {
				vs = append(vs, int32(c))
			}
		}
		return vs
	default: // topk, unrestricted source
		return []int32{sub.AnyVertex}
	}
}

// parseSubQuery reads the subscription's query parameters into the
// shape's POST request and validates it with the same validator a cold
// query runs, writing the 400 itself on failure.
func parseSubQuery(w http.ResponseWriter, r *http.Request) (*Query, bool) {
	qp := r.URL.Query()
	shape, alg := qp.Get("shape"), qp.Get("alg")
	switch shape {
	case "score", "source", "topk":
	default:
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("shape %q must be score, source or topk", shape))
		return nil, false
	}
	u, ok := intParam(w, qp.Get("u"), "u")
	if !ok {
		return nil, false
	}
	var req queryRequest
	switch shape {
	case "score":
		v, ok := intParam(w, qp.Get("v"), "v")
		if !ok {
			return nil, false
		}
		req = &ScoreRequest{Alg: alg, U: u, V: v}
	case "topk":
		k, ok := intParam(w, qp.Get("k"), "k")
		if !ok {
			return nil, false
		}
		req = &TopKRequest{Alg: alg, U: &u, K: k}
	default:
		var cands []int
		if raw := qp.Get("candidates"); raw != "" {
			for _, part := range strings.Split(raw, ",") {
				c, ok := intParam(w, part, "candidates")
				if !ok {
					return nil, false
				}
				cands = append(cands, c)
			}
		}
		req = &SourceRequest{Alg: alg, U: u, Candidates: cands}
	}
	q, err := req.Query()
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return nil, false
	}
	return q, true
}

// intParam parses one required integer query parameter, writing the
// 400 itself.
func intParam(w http.ResponseWriter, raw, name string) (int, bool) {
	if raw == "" {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("%q is required", name))
		return 0, false
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad %q: %v", name, err))
		return 0, false
	}
	return v, true
}

// pushBody computes the subscription's answer against h and encodes it
// exactly as the cold handler would. The push runs the same pipeline
// as a cold query, under the same flight key, so concurrent identical
// pushes (and cold queries) collapse into one engine call, and it takes
// a regular admission slot, so a thundering herd of woken
// subscriptions recomputes in bounded batches rather than all at once.
// The caller keeps ownership of its pin on h; the flight takes its own.
//
// Pushes deliberately do not record into the per-shape query metrics:
// they are server-initiated work, and counting them would skew the
// client-facing latency and coalesce-rate numbers.
func (s *Server) pushBody(q *Query, h *engineHandle) ([]byte, error) {
	val, _, _, err := s.plane.Run(nil, nil, q, h.gen, s.engineBackend(q, h))
	if errors.Is(err, errRejected) {
		return nil, fmt.Errorf("push rejected: server saturated (%d queries in flight)", s.cfg.MaxInFlight)
	}
	if err != nil {
		return nil, err
	}
	return MarshalBody(q.response(val, false, nil))
}

// WriteTerminal emits a terminal event (shutdown/gone/error) carrying
// the uniform error envelope as its payload, then flushes; coordinator
// relays share it. Best-effort: the client may already be gone.
func WriteTerminal(w http.ResponseWriter, fl http.Flusher, event string, id uint64, code, msg string) {
	body, err := MarshalBody(ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
	if err != nil {
		return
	}
	if sub.WriteEvent(w, event, id, body) == nil {
		fl.Flush()
	}
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, CodeEngineError,
			"streaming unsupported by this connection")
		return
	}
	q, ok := parseSubQuery(w, r)
	if !ok {
		return
	}
	staleness := time.Duration(0)
	if raw := r.URL.Query().Get("staleness_ms"); raw != "" {
		ms, ok := intParam(w, raw, "staleness_ms")
		if !ok {
			return
		}
		if staleness = time.Duration(ms) * time.Millisecond; staleness > s.cfg.SubMaxStaleness {
			staleness = s.cfg.SubMaxStaleness
		}
		if staleness < 0 {
			staleness = 0
		}
	}

	// Validate the shape against the current graph, then let go of the
	// handle: a subscription pins an engine only for the duration of a
	// push, never for the stream's lifetime, so idle subscribers cannot
	// wedge a hot-swap's drain.
	h := s.engine()
	err := q.checkGraph(h)
	bootGen := h.gen
	h.release()
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}

	su := s.subs.Subscribe(q.watched(), staleness)
	if su == nil {
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "server shutting down")
		return
	}
	defer s.subs.Unsubscribe(su)

	// Resume: a client that already holds the answer for the current
	// generation (its Last-Event-ID matches) skips the snapshot and goes
	// straight to waiting for updates.
	lastSent := uint64(0)
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		if id, err := strconv.ParseUint(raw, 10, 64); err == nil {
			lastSent = id
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(GenerationHeader, strconv.FormatUint(bootGen, 10))
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Initial snapshot. The subscription is already registered, so a
	// mutation landing between the snapshot's pin and the first wait is
	// never lost — it marks the subscription dirty and the loop below
	// picks it up (pushes with gen ≤ lastSent are skipped, so nothing is
	// sent twice either).
	if sh := s.engine(); sh.gen != lastSent {
		body, err := s.pushBody(q, sh)
		if err != nil {
			sh.release()
			s.subs.NoteDropped()
			WriteTerminal(w, fl, EventError, 0, CodeEngineError, "snapshot failed: "+err.Error())
			return
		}
		if sub.WriteEvent(w, EventSnapshot, sh.gen, body) != nil {
			sh.release()
			return
		}
		fl.Flush()
		lastSent = sh.gen
		sh.release()
	} else {
		sh.release()
	}

	hb := time.NewTicker(s.cfg.SubHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.subs.ShuttingDown():
			WriteTerminal(w, fl, EventShutdown, lastSent, CodeUnavailable,
				"server shutting down; resubscribe with Last-Event-ID to resume")
			return
		case <-s.baseCtx.Done():
			WriteTerminal(w, fl, EventShutdown, lastSent, CodeUnavailable,
				"server shutting down; resubscribe with Last-Event-ID to resume")
			return
		case <-hb.C:
			if sub.WriteComment(w, "hb") != nil {
				return
			}
			fl.Flush()
		case <-su.Wait():
			// Staleness SLA: the subscription may sit on the wake-up for
			// its negotiated window, folding further generations into one
			// push (claimed below, so the push carries the newest).
			if d := su.Staleness(); d > 0 {
				t := time.NewTimer(d)
			stale:
				for {
					select {
					case <-t.C:
						break stale
					case <-hb.C:
						if sub.WriteComment(w, "hb") != nil {
							t.Stop()
							return
						}
						fl.Flush()
					case <-ctx.Done():
						t.Stop()
						return
					case <-s.subs.ShuttingDown():
						t.Stop()
						WriteTerminal(w, fl, EventShutdown, lastSent, CodeUnavailable,
							"server shutting down; resubscribe with Last-Event-ID to resume")
						return
					}
				}
				t.Stop()
			}
			target := su.Claim()
			if target == 0 || target <= lastSent {
				continue
			}
			ph := s.engine()
			if ph.gen <= lastSent {
				ph.release()
				continue
			}
			// A reload may have shrunk the graph under the subscription.
			n := ph.graph.NumVertices()
			for _, v := range q.vertexArgs() {
				if v < 0 || v >= n {
					ph.release()
					s.subs.NoteDropped()
					WriteTerminal(w, fl, EventGone, lastSent, CodeBadRequest,
						fmt.Sprintf("vertex %d out of range [0,%d) after reload", v, n))
					return
				}
			}
			body, err := s.pushBody(q, ph)
			gen := ph.gen
			ph.release()
			if err != nil {
				s.subs.NoteDropped()
				WriteTerminal(w, fl, EventError, lastSent, CodeEngineError, "push failed: "+err.Error())
				return
			}
			if sub.WriteEvent(w, EventUpdate, gen, body) != nil {
				s.subs.NoteDropped()
				return
			}
			// Count the push before flushing it, so a client that has
			// read the event always finds it in the stats.
			s.subs.NotePush()
			fl.Flush()
			lastSent = gen
		}
	}
}
