package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"usimrank/internal/server"
	"usimrank/internal/sub"
)

// openRelaySub opens a /v1/subscribe stream against a live coordinator
// listener.
func openRelaySub(t *testing.T, base, query string) (*http.Response, *bufio.Reader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe?"+query, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		resp.Body.Close()
		cancel()
		t.Fatalf("relay subscribe status %d: %s", resp.StatusCode, buf[:n])
	}
	return resp, bufio.NewReader(resp.Body), cancel
}

func nextRelayEvent(t *testing.T, br *bufio.Reader) *sub.Frame {
	t.Helper()
	for {
		fr, err := sub.ReadFrame(br)
		if err != nil {
			t.Fatalf("read relayed frame: %v", err)
		}
		if !fr.Comment() {
			return fr
		}
	}
}

// TestRelaySubscriptionFailover drives the full relay lifecycle over a
// one-shard, two-replica fleet: snapshot bytes match a cold query
// through the coordinator; a node draining mid-stream is invisible to
// the client (its shutdown event is swallowed and the stream resumes
// on the replica via Last-Event-ID); an admin update then reaches the
// client through the failed-over stream; and coordinator shutdown
// terminates the relay with its own shutdown event.
func TestRelaySubscriptionFailover(t *testing.T) {
	g := testGraph()
	var nodes []*server.Server
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := server.New(g, "test://shard", server.Config{Engine: testOptions()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		nodes = append(nodes, s)
		urls = append(urls, ts.URL)
	}
	co := newCoordinator(t, [][]string{urls}, nil)
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	const u, v = 3, 17
	resp, br, cancel := openRelaySub(t, cts.URL, fmt.Sprintf("shape=score&alg=sampling&u=%d&v=%d", u, v))
	defer cancel()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("relay Content-Type %q", ct)
	}

	fr := nextRelayEvent(t, br)
	if fr.Name() != server.EventSnapshot || fr.ID() != 1 {
		t.Fatalf("first relayed event %s id %d, want snapshot id 1", fr.Name(), fr.ID())
	}
	_, cold := post(t, co, "/v1/score", fmt.Sprintf(`{"alg":"sampling","u":%d,"v":%d}`, u, v))
	if !bytes.Equal(fr.Data(), cold) {
		t.Fatalf("relayed snapshot differs from cold coordinator query:\nrelay: %s\ncold: %s", fr.Data(), cold)
	}

	// Drain the primary. Its stream sends a terminal shutdown event; the
	// relay must swallow it, fail over to the replica with
	// Last-Event-ID=1, and — since the generation has not moved — the
	// client must see nothing at all.
	if !nodes[0].DrainSubscriptions() {
		t.Fatal("primary drain timed out")
	}
	// Wait for the relay to re-establish on the replica (the failover is
	// asynchronous to the drain call), so the update below is a push to
	// an attached subscription, not a reconnect-time snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := nodes[1].Stats(); st.Subscriptions != nil && st.Subscriptions.Active >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never failed over to the replica")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An update through the coordinator reaches both replicas; the
	// failed-over stream must push the new answer. (The arc mutated is
	// (u, v) reweighted, so the invalidation BFS trivially reaches u.)
	status, body := post(t, co, "/v1/admin/update",
		fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.5}]}`, v, u))
	if status != http.StatusOK {
		// The test graph may not contain the arc (v, u); insert instead.
		status, body = post(t, co, "/v1/admin/update",
			fmt.Sprintf(`{"updates":[{"op":"insert","u":%d,"v":%d,"p":0.5}]}`, v, u))
	}
	if status != http.StatusOK {
		t.Fatalf("cluster update status %d: %s", status, body)
	}

	fr = nextRelayEvent(t, br)
	if fr.Name() != server.EventUpdate || fr.ID() != 2 {
		t.Fatalf("post-failover event %s id %d, want update id 2", fr.Name(), fr.ID())
	}
	_, cold = post(t, co, "/v1/score", fmt.Sprintf(`{"alg":"sampling","u":%d,"v":%d}`, u, v))
	if !bytes.Equal(fr.Data(), cold) {
		t.Fatalf("relayed update differs from cold coordinator query:\nrelay: %s\ncold: %s", fr.Data(), cold)
	}

	st := co.Stats()
	if st.Subscriptions == nil || st.Subscriptions.Active != 1 || st.Subscriptions.Pushes < 1 {
		t.Fatalf("coordinator subscription stats %+v, want 1 active and >= 1 push", st.Subscriptions)
	}

	// Coordinator shutdown ends the relay with its own terminal event.
	done := make(chan bool, 1)
	go func() { done <- co.DrainSubscriptions() }()
	fr = nextRelayEvent(t, br)
	if fr.Name() != server.EventShutdown {
		t.Fatalf("terminal relayed event %q, want shutdown", fr.Name())
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("coordinator drain timed out")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator drain hung")
	}
	if _, err := sub.ReadFrame(br); err == nil {
		t.Fatal("stream still open after the coordinator's terminal shutdown")
	}
}

// TestRelayRejectsBadRequestsBeforeStreaming pins the pre-stream 4xx
// relay: the owning node's validation answer comes back verbatim with
// its status, not wrapped in an SSE stream.
func TestRelayRejectsBadRequestsBeforeStreaming(t *testing.T) {
	g := testGraph()
	co := bootCluster(t, g, 2)
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	for _, tc := range []struct {
		name, query string
		status      int
	}{
		{"missing u", "shape=score&alg=sampling&v=2", http.StatusBadRequest},
		{"bad alg", "shape=score&alg=nope&u=1&v=2", http.StatusBadRequest},
		{"bad shape", "shape=pairs&alg=sampling&u=1", http.StatusBadRequest},
		{"vertex out of range", "shape=score&alg=sampling&u=1&v=99999", http.StatusBadRequest},
	} {
		resp, err := http.Get(cts.URL + "/v1/subscribe?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestRelayReconnectsAfterConnectionLoss severs the coordinator→node
// stream mid-subscription: the relay must silently re-establish it
// (resuming via Last-Event-ID, so no duplicate snapshot reaches the
// client) and the next update must flow through the new connection.
func TestRelayReconnectsAfterConnectionLoss(t *testing.T) {
	g := testGraph()
	node, err := server.New(g, "test://shard", server.Config{Engine: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	// attached counts the node's subscribe streams whose response
	// headers are out: the handler registers its subscription before
	// writing them and decides on a snapshot right after.
	var attached atomic.Int64
	nodeHandler := node.Handler()
	nts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/subscribe" {
			w = &headerFlushSignal{ResponseWriter: w, flushed: &attached}
		}
		nodeHandler.ServeHTTP(w, r)
	}))
	defer nts.Close()
	co := newCoordinator(t, [][]string{{nts.URL}}, nil)
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	resp, br, cancel := openRelaySub(t, cts.URL, "shape=score&alg=sampling&u=3&v=17")
	defer cancel()
	defer resp.Body.Close()
	if fr := nextRelayEvent(t, br); fr.Name() != server.EventSnapshot || fr.ID() != 1 {
		t.Fatalf("first event %s id %d, want snapshot id 1", fr.Name(), fr.ID())
	}

	// Kill every open connection to the node, including the relay's
	// stream, then wait for the relay to re-attach: a second stream has
	// sent its headers. (The node's Active count is no signal: the dead
	// stream keeps it at 1 until the node notices the closed connection,
	// and an update landing before the re-attach is rightly answered
	// with a snapshot at the new generation.)
	nts.CloseClientConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if attached.Load() >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never re-established the node stream")
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, body := post(t, co, "/v1/admin/update", `{"updates":[{"op":"reweight","u":17,"v":3,"p":0.5}]}`)
	if status != http.StatusOK {
		status, body = post(t, co, "/v1/admin/update", `{"updates":[{"op":"insert","u":17,"v":3,"p":0.5}]}`)
	}
	if status != http.StatusOK {
		t.Fatalf("cluster update status %d: %s", status, body)
	}

	fr := nextRelayEvent(t, br)
	if fr.Name() != server.EventUpdate || fr.ID() != 2 {
		t.Fatalf("post-reconnect event %s id %d, want update id 2 (a duplicate snapshot means the resume cursor was lost)",
			fr.Name(), fr.ID())
	}
}

// headerFlushSignal counts, in flushed, the flush that sends a
// response's headers.
type headerFlushSignal struct {
	http.ResponseWriter
	flushed *atomic.Int64
	pending bool
}

func (h *headerFlushSignal) WriteHeader(code int) {
	h.ResponseWriter.WriteHeader(code)
	h.pending = true
}

func (h *headerFlushSignal) Flush() {
	h.ResponseWriter.(http.Flusher).Flush()
	if h.pending {
		h.pending = false
		h.flushed.Add(1)
	}
}

// gatedProxy fronts a node and can be flipped into hard-down mode
// (503 every request), so endpoint failure can be injected without
// racing httptest.Server.Close against in-flight streams.
type gatedProxy struct {
	up    atomic.Bool
	inner *httputil.ReverseProxy
}

func (p *gatedProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !p.up.Load() {
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
		return
	}
	p.inner.ServeHTTP(w, r)
}

// TestRelayShardOutage pins both outage surfaces: with every endpoint
// down before the stream starts, the client gets a plain 502; with the
// outage landing mid-stream, the client gets a terminal error event on
// the already-started stream.
func TestRelayShardOutage(t *testing.T) {
	g := testGraph()
	nts := newShardNode(t, g)
	target, err := url.Parse(nts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := &gatedProxy{inner: httputil.NewSingleHostReverseProxy(target)}
	proxy.inner.FlushInterval = -1 // stream SSE frames through unbuffered
	proxy.up.Store(true)
	pts := httptest.NewServer(proxy)
	defer pts.Close()

	co := newCoordinator(t, [][]string{{pts.URL}}, nil)
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	// Not yet started: a full failed endpoint pass is a plain 502.
	proxy.up.Store(false)
	resp, err := http.Get(cts.URL + "/v1/subscribe?shape=score&alg=sampling&u=3&v=17")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-endpoints-down subscribe status %d, want 502", resp.StatusCode)
	}

	// Started: the outage must surface as a terminal error event.
	proxy.up.Store(true)
	sresp, br, cancel := openRelaySub(t, cts.URL, "shape=score&alg=sampling&u=3&v=17")
	defer cancel()
	defer sresp.Body.Close()
	if fr := nextRelayEvent(t, br); fr.Name() != server.EventSnapshot {
		t.Fatalf("first event %q, want snapshot", fr.Name())
	}
	proxy.up.Store(false)
	pts.CloseClientConnections()

	fr := nextRelayEvent(t, br)
	if fr.Name() != server.EventError {
		t.Fatalf("outage event %q, want error", fr.Name())
	}
	if _, err := sub.ReadFrame(br); err == nil {
		t.Fatal("stream still open after the terminal error event")
	}
	if st := co.Stats(); st.Subscriptions == nil || st.Subscriptions.Dropped < 1 {
		t.Fatalf("coordinator dropped counter %+v, want >= 1", st.Subscriptions)
	}
}
