package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"usimrank/internal/server"
	"usimrank/internal/sub"
)

// GET /v1/subscribe on the coordinator: the subscription is relayed to
// the shard owning the query's source vertex, frame by frame, so a
// cluster client sees exactly the stream a single node would serve.
// The coordinator adds fault tolerance on top:
//
//   - when the serving endpoint fails mid-stream (connection drop, node
//     drain), the relay fails over to the shard's next endpoint and
//     resumes via Last-Event-ID — the node then re-sends a snapshot
//     only if the generation moved, so a clean failover is invisible
//     beyond a pause;
//   - a node's terminal "shutdown" event is swallowed and treated as a
//     failover trigger, never forwarded: one node draining must not end
//     a cluster client's subscription while replicas can carry it;
//   - an endpoint answering with a generation older than the
//     coordinator's cluster view is rejected as stale, exactly like the
//     query path's staleness check.
//
// Only when a full pass over the shard's endpoints yields no usable
// stream does the client see a terminal event (or a 502 before the
// stream ever started).

// subDrainTimeout bounds how long coordinator shutdown waits for relay
// streams to finish their terminal events (mirrors the node default).
const subDrainTimeout = 15 * time.Second

// DrainSubscriptions tells every live relay stream to send its
// terminal shutdown event and close, then waits (bounded) for them.
// Call before http.Server.Shutdown, which blocks on active connections.
func (co *Coordinator) DrainSubscriptions() bool {
	co.subs.Shutdown()
	return co.subs.AwaitIdle(subDrainTimeout)
}

func (co *Coordinator) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		server.WriteError(w, http.StatusInternalServerError, server.CodeEngineError,
			"streaming unsupported by this connection")
		return
	}
	// Routing needs only the source vertex; everything else (shape, alg,
	// vertex ranges) is validated by the owning node and any 4xx it
	// answers with is relayed verbatim below.
	u, err := strconv.Atoi(r.URL.Query().Get("u"))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Sprintf("bad %q: %v", "u", err))
		return
	}
	shard := co.shards.Of(u)

	// Registered with no watched vertices: the owning node does the
	// wake-up filtering; the coordinator's registry only tracks relay
	// lifecycle (active count, shutdown broadcast, drain).
	su := co.subs.Subscribe(nil, 0)
	if su == nil {
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeUnavailable,
			"coordinator shutting down")
		return
	}
	defer co.subs.Unsubscribe(su)

	rs := &relayState{lastID: 0, started: false}
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		if id, perr := strconv.ParseUint(raw, 10, 64); perr == nil {
			rs.lastID = id
		}
	}

	endpoints := co.cfg.Shards[shard]
	for {
		connected := false
		for _, ep := range endpoints {
			ok, terminal := co.relayFrom(w, fl, r, shard, ep, rs)
			if terminal {
				return
			}
			connected = connected || ok
		}
		// A full pass over the shard's endpoints without one usable
		// stream: the shard is down (or uniformly stale).
		if !connected {
			msg := fmt.Sprintf("%s: no endpoint could serve the subscription", shardName(shard))
			if rs.started {
				co.subs.NoteDropped()
				server.WriteTerminal(w, fl, server.EventError, rs.lastID, server.CodeShardUnavailable, msg)
			} else {
				server.WriteError(w, http.StatusBadGateway, server.CodeShardUnavailable, msg)
			}
			return
		}
	}
}

// relayState threads the resume cursor across failover attempts.
type relayState struct {
	lastID  uint64 // newest event id forwarded (or the client's resume point)
	started bool   // response headers committed to the client
}

// relayFrom streams one endpoint's subscription to the client until the
// endpoint fails or a terminal condition ends the relay. ok reports
// that the endpoint served a usable stream at some point (resets the
// all-endpoints-down detection); terminal reports the relay is over and
// the handler must return.
func (co *Coordinator) relayFrom(w http.ResponseWriter, fl http.Flusher, r *http.Request, shard int, ep string, rs *relayState) (ok, terminal bool) {
	ctx, cancel := co.relayCtx(r)
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/v1/subscribe?"+r.URL.RawQuery, nil)
	if err != nil {
		return false, false
	}
	if rs.lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(rs.lastID, 10))
	}
	resp, err := co.client.http.Do(req)
	if err != nil {
		return false, co.relayInterrupted(w, fl, r, rs)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		// 4xx is definitive (bad shape, vertex out of range): relay it
		// verbatim and end — but only while nothing was streamed yet; a
		// mid-stream 4xx after a reload surfaces as the node's own
		// terminal "gone" event instead. 5xx/429 are endpoint trouble:
		// try the next one.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && !rs.started {
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, io.LimitReader(resp.Body, 1<<20))
			return true, true
		}
		return false, false
	}
	// Reject a node that missed admin mutations: its pushes would carry
	// answers from an older graph than the cluster generation.
	if gen, perr := strconv.ParseUint(resp.Header.Get(server.GenerationHeader), 10, 64); perr != nil || gen < co.Generation() {
		co.client.noteStale(shard)
		return false, false
	}

	if !rs.started {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set(server.GenerationHeader, resp.Header.Get(server.GenerationHeader))
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		rs.started = true
	}

	br := bufio.NewReader(resp.Body)
	for {
		fr, rerr := sub.ReadFrame(br)
		if rerr != nil {
			// Endpoint gone mid-stream (or the relay was cancelled):
			// decide which below.
			return true, co.relayInterrupted(w, fl, r, rs)
		}
		switch fr.Name() {
		case server.EventShutdown:
			// The node is draining. Swallow its terminal event and fail
			// over: a replica can resume the stream from rs.lastID, and
			// the cluster client never learns one node bounced.
			return true, false
		case server.EventGone, server.EventError:
			co.subs.NoteDropped()
			if fr.Forward(w) == nil {
				fl.Flush()
			}
			return true, true
		}
		if fr.Forward(w) != nil {
			return true, true // client gone
		}
		if fr.Name() == server.EventUpdate {
			co.subs.NotePush() // before the flush, as on a node
		}
		fl.Flush()
		if id := fr.ID(); id > 0 {
			rs.lastID = id
		}
	}
}

// relayCtx derives the downstream request context: cancelled when the
// client disconnects, the coordinator shuts down, or the subscription
// registry starts draining — whichever comes first. Cancellation is
// what unblocks a relay parked in ReadFrame on a healthy-but-quiet
// stream, so shutdown can interrupt it.
func (co *Coordinator) relayCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := make(chan struct{})
	go func() {
		select {
		case <-co.subs.ShuttingDown():
			cancel()
		case <-co.baseCtx.Done():
			cancel()
		case <-stop:
		}
	}()
	return ctx, func() { cancel(); close(stop) }
}

// relayInterrupted classifies a broken downstream read: coordinator
// shutdown writes the terminal shutdown event; a vanished client just
// ends the relay; anything else is endpoint trouble and the caller
// fails over.
func (co *Coordinator) relayInterrupted(w http.ResponseWriter, fl http.Flusher, r *http.Request, rs *relayState) (terminal bool) {
	select {
	case <-co.subs.ShuttingDown():
	case <-co.baseCtx.Done():
	default:
		if r.Context().Err() != nil {
			return true // client disconnected; nobody to fail over for
		}
		return false
	}
	if rs.started {
		server.WriteTerminal(w, fl, server.EventShutdown, rs.lastID, server.CodeUnavailable,
			"coordinator shutting down; resubscribe with Last-Event-ID to resume")
	} else {
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeUnavailable,
			"coordinator shutting down")
	}
	return true
}
