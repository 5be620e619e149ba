package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"usimrank"
	"usimrank/internal/gen"
	"usimrank/internal/rng"
	"usimrank/internal/sub"
	"usimrank/internal/ugraph"
)

// openSub opens a /v1/subscribe stream against a live httptest server
// and returns the response plus a frame reader. cancel the returned
// context to end the stream.
func openSub(t *testing.T, base, query string, lastID uint64) (*http.Response, *bufio.Reader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe?"+query, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body := make([]byte, 512)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe %q status %d: %s", query, resp.StatusCode, body[:n])
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe Content-Type %q", ct)
	}
	return resp, bufio.NewReader(resp.Body), cancel
}

// nextEvent reads frames until a non-comment event arrives.
func nextEvent(t *testing.T, br *bufio.Reader) *sub.Frame {
	t.Helper()
	for {
		fr, err := sub.ReadFrame(br)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if !fr.Comment() {
			return fr
		}
	}
}

// coldBody issues a cold POST query and returns the raw response body —
// the bytes a subscription push of the same shape must reproduce
// exactly.
func coldBody(t *testing.T, h http.Handler, path string, body any) []byte {
	t.Helper()
	raw, err := MarshalBody(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold %s status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestHTTPServerTimeouts pins the listener contract: a slowloris guard
// and an idle reaper, but no blanket WriteTimeout (which would kill
// every healthy SSE stream at the deadline).
func TestHTTPServerTimeouts(t *testing.T) {
	hs := NewHTTPServer(":0", http.NotFoundHandler())
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v, want 0: a write deadline is armed per connection and would kill active SSE streams", hs.WriteTimeout)
	}
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, want > 0 (slowloris guard)", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout %v, want > 0 (idle keep-alive reaper)", hs.IdleTimeout)
	}
}

// TestIdleConnReapedWhileStreamSurvives runs a real listener with the
// production timeout shape (shrunk) and checks both halves of the
// invariant: a kept-alive connection with no request in flight is
// reaped by IdleTimeout, while an SSE stream that lives far past the
// same deadline keeps receiving heartbeats.
func TestIdleConnReapedWhileStreamSurvives(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions(), SubHeartbeat: 20 * time.Millisecond})

	hs := NewHTTPServer(":0", s.Handler())
	hs.ReadHeaderTimeout = 150 * time.Millisecond
	hs.IdleTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// The SSE stream: opened first, must outlive several IdleTimeouts.
	resp, br, cancel := openSub(t, base, "shape=score&alg=sampling&u=3&v=17", 0)
	defer cancel()
	defer resp.Body.Close()
	if fr := nextEvent(t, br); fr.Name() != EventSnapshot {
		t.Fatalf("first event %q, want snapshot", fr.Name())
	}

	// The idle connection: completes one request, then sits silent.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
	cr := bufio.NewReader(conn)
	hr, err := http.ReadResponse(cr, nil)
	if err != nil {
		t.Fatalf("healthz over raw conn: %v", err)
	}
	if _, err := io.Copy(io.Discard, hr.Body); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := cr.ReadByte(); err == nil {
		t.Fatal("idle connection produced bytes after its response")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("idle connection still open after %v, want reaped by IdleTimeout", time.Since(start))
	}

	// The stream must still be alive well past the idle deadline: the
	// reap above took ≥ IdleTimeout, so heartbeats arriving now prove
	// the active stream was exempt.
	hbs := 0
	for hbs < 3 {
		fr, err := sub.ReadFrame(br)
		if err != nil {
			t.Fatalf("SSE stream died while idle connections were being reaped: %v", err)
		}
		if fr.Comment() {
			hbs++
		}
	}
}

// TestShutdownBroadcastsToSubscribers opens 32 live streams and checks
// DrainSubscriptions turns them all around promptly: every client sees
// a terminal shutdown event followed by EOF, and the drain completes
// far inside the drain timeout.
func TestShutdownBroadcastsToSubscribers(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const subscribers = 32
	type outcome struct {
		terminal string
		err      error
	}
	results := make(chan outcome, subscribers)
	var ready sync.WaitGroup
	ready.Add(subscribers)
	for i := 0; i < subscribers; i++ {
		go func(i int) {
			signalled := false
			defer func() {
				if !signalled {
					ready.Done()
				}
			}()
			resp, err := http.Get(fmt.Sprintf("%s/v1/subscribe?shape=topk&alg=srsp&u=%d&k=3", ts.URL, i))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			last := ""
			for {
				fr, err := sub.ReadFrame(br)
				if err != nil {
					results <- outcome{terminal: last}
					return
				}
				if fr.Comment() {
					continue
				}
				if fr.Name() == EventSnapshot && !signalled {
					signalled = true
					ready.Done()
					continue
				}
				last = fr.Name()
			}
		}(i)
	}
	ready.Wait()

	start := time.Now()
	if !s.DrainSubscriptions() {
		t.Fatal("DrainSubscriptions timed out")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain of %d idle subscribers took %v", subscribers, d)
	}
	for i := 0; i < subscribers; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("subscriber error: %v", o.err)
		}
		if o.terminal != EventShutdown {
			t.Fatalf("subscriber's last event %q, want shutdown", o.terminal)
		}
	}
	if st := s.subs.Snapshot(nil); st.Active != 0 {
		t.Fatalf("%d subscriptions still registered after drain", st.Active)
	}
}

// TestReloadDrainsWithIdleSubscribers pins the per-push pinning rule:
// an idle subscriber holds no engine handle, so a hot-swap's drain
// completes immediately, and the subscriber then receives the
// new-generation push (a reload wakes everyone).
func TestReloadDrainsWithIdleSubscribers(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, br, cancel := openSub(t, ts.URL, "shape=score&alg=twophase&u=3&v=17", 0)
	defer cancel()
	defer resp.Body.Close()
	if fr := nextEvent(t, br); fr.Name() != EventSnapshot || fr.ID() != 1 {
		t.Fatalf("first event %s id %d, want snapshot id 1", fr.Name(), fr.ID())
	}

	path := writeGraphFile(t, testGraph())
	rr, err := s.Reload(path, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Drained {
		t.Fatal("reload did not drain: an idle subscriber is pinning the old engine")
	}
	if rr.Generation != 2 {
		t.Fatalf("reload generation %d, want 2", rr.Generation)
	}

	fr := nextEvent(t, br)
	if fr.Name() != EventUpdate || fr.ID() != 2 {
		t.Fatalf("post-reload event %s id %d, want update id 2", fr.Name(), fr.ID())
	}
	want := coldBody(t, s, "/v1/score", ScoreRequest{Alg: "twophase", U: 3, V: 17})
	if !bytes.Equal(fr.Data(), want) {
		t.Fatalf("pushed body differs from cold query:\npush: %s\ncold: %s", fr.Data(), want)
	}
}

// TestPushBytesMatchColdQuery is the equivalence suite: for every
// sampled strategy and for the indexed path, the snapshot and each
// update push must be byte-identical to a cold POST of the same shape
// at the same generation.
func TestPushBytesMatchColdQuery(t *testing.T) {
	g := testGraph()
	idx := buildTestIndex(t, g, testOptions())
	s := newTestServer(t, Config{Engine: testOptions(), Index: idx})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, b, p := firstArc(t, g)
	_ = a
	gen := uint64(1)
	for i, alg := range []string{"sampling", "twophase", "srsp", "sampling_v2", "indexed"} {
		t.Run(alg, func(t *testing.T) {
			// Subscribe to the single-source shape rooted at the updated
			// arc's head: the invalidation BFS reaches it at distance 0,
			// so every batch below must wake this stream.
			resp, br, cancel := openSub(t, ts.URL, "shape=source&alg="+alg+"&u="+fmt.Sprint(b), 0)
			defer cancel()
			defer resp.Body.Close()

			fr := nextEvent(t, br)
			if fr.Name() != EventSnapshot || fr.ID() != gen {
				t.Fatalf("first event %s id %d, want snapshot id %d", fr.Name(), fr.ID(), gen)
			}
			want := coldBody(t, s, "/v1/source", SourceRequest{Alg: alg, U: b})
			if !bytes.Equal(fr.Data(), want) {
				t.Fatalf("snapshot differs from cold query at generation %d:\npush: %s\ncold: %s", gen, fr.Data(), want)
			}

			// Mutate the arc into the watched source; p varies per
			// iteration so every batch is a net change.
			newP := 0.25 + 0.05*float64(i)
			if _, err := s.ApplyUpdates([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: newP}}); err != nil {
				t.Fatal(err)
			}
			gen++

			fr = nextEvent(t, br)
			if fr.Name() != EventUpdate || fr.ID() != gen {
				t.Fatalf("post-update event %s id %d, want update id %d", fr.Name(), fr.ID(), gen)
			}
			want = coldBody(t, s, "/v1/source", SourceRequest{Alg: alg, U: b})
			if !bytes.Equal(fr.Data(), want) {
				t.Fatalf("pushed update differs from cold query at generation %d:\npush: %s\ncold: %s", gen, fr.Data(), want)
			}
		})
	}
	_ = p
}

// TestNoopUpdateWakesNoSubscriptions applies a batch that nets out to
// no change (a reweight to the arc's existing probability) and checks
// the invalidation plane stays silent: zero wake-ups, zero pushes. A
// genuine change afterwards proves the stream was alive all along.
func TestNoopUpdateWakesNoSubscriptions(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a, b, p := firstArc(t, g)

	resp, br, cancel := openSub(t, ts.URL, fmt.Sprintf("shape=score&alg=sampling&u=%d&v=%d", b, (b+1)%g.NumVertices()), 0)
	defer cancel()
	defer resp.Body.Close()
	if fr := nextEvent(t, br); fr.Name() != EventSnapshot {
		t.Fatalf("first event %q, want snapshot", fr.Name())
	}

	before := s.subs.Snapshot(nil)
	if _, err := s.ApplyUpdates([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: p}}); err != nil {
		t.Fatal(err)
	}
	after := s.subs.Snapshot(nil)
	if after.Wakeups != before.Wakeups || after.Lookups != before.Lookups {
		t.Fatalf("no-op batch woke subscriptions: wakeups %d->%d, lookups %d->%d",
			before.Wakeups, after.Wakeups, before.Lookups, after.Lookups)
	}

	// A real change must still come through — and its push skips the
	// netted-out generation, jumping straight to the latest.
	if _, err := s.ApplyUpdates([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: p / 2}}); err != nil {
		t.Fatal(err)
	}
	fr := nextEvent(t, br)
	if fr.Name() != EventUpdate || fr.ID() != 3 {
		t.Fatalf("post-change event %s id %d, want update id 3", fr.Name(), fr.ID())
	}
}

// TestWakeSetMatchesBoundedDistances pins the wake-set precision: the
// set of woken subscriptions must equal, exactly, the vertices within
// the walk horizon of the net-changed arc heads under the union of the
// old and new graphs — the ground truth BoundedDistances computes —
// and the registry must spend one index lookup per touched vertex, not
// per subscription.
func TestWakeSetMatchesBoundedDistances(t *testing.T) {
	oldG := testGraph()
	s := newTestServer(t, Config{Engine: testOptions()})
	n := oldG.NumVertices()

	// One subscription per vertex, registered directly with the wake
	// plane (the HTTP framing is exercised elsewhere).
	subs := make([]*sub.Subscription, n)
	for v := 0; v < n; v++ {
		subs[v] = s.subs.Subscribe([]int32{int32(v)}, 0)
		if subs[v] == nil {
			t.Fatal("Subscribe returned nil on a live registry")
		}
	}

	a, b, p := firstArc(t, oldG)
	ups := []usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: p / 2}}
	newG, err := oldG.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: sources whose walks can reach the net-changed head b
	// within Steps−1 hops in the old or new graph.
	steps := testOptions().Steps
	if steps == 0 {
		steps = 5
	}
	horizon := steps - 1
	dist := ugraph.BoundedDistances([]int32{int32(b)}, horizon, oldG, newG)
	expected := make([]bool, n)
	expectedCount := 0
	for v, dv := range dist {
		if dv >= 0 && int(dv) <= horizon {
			expected[v] = true
			expectedCount++
		}
	}
	if expectedCount == 0 || expectedCount == n {
		t.Fatalf("degenerate ground truth (%d/%d touched); pick a different arc", expectedCount, n)
	}

	before := s.subs.Snapshot(nil)
	if _, err := s.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}
	after := s.subs.Snapshot(nil)

	for v := 0; v < n; v++ {
		woken := subs[v].Pending() != 0
		if woken != expected[v] {
			t.Errorf("vertex %d: woken=%v, BoundedDistances says %v (dist %d, horizon %d)",
				v, woken, expected[v], dist[v], horizon)
		}
	}
	if got := after.Wakeups - before.Wakeups; got != uint64(expectedCount) {
		t.Errorf("wakeups %d, want %d (one per touched source)", got, expectedCount)
	}
	if got := after.Lookups - before.Lookups; got != uint64(expectedCount) {
		t.Errorf("index lookups %d, want %d — the wake path must be O(touched), not O(subscribers)", got, expectedCount)
	}
}

// TestSubscribeResume pins the Last-Event-ID contract: reconnecting
// with the current generation skips the snapshot; reconnecting with an
// older one gets a fresh snapshot at the current generation.
func TestSubscribeResume(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions(), SubHeartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a, b, p := firstArc(t, g)

	// Current generation resume: no snapshot, just heartbeats until a
	// change lands.
	resp, br, cancel := openSub(t, ts.URL, fmt.Sprintf("shape=topk&alg=sampling&u=%d&k=3", b), 1)
	defer cancel()
	defer resp.Body.Close()
	fr, err := sub.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Comment() {
		t.Fatalf("resumed-at-current stream sent %q first, want a heartbeat comment (snapshot skipped)", fr.Name())
	}
	if _, err := s.ApplyUpdates([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: p / 2}}); err != nil {
		t.Fatal(err)
	}
	if fr := nextEvent(t, br); fr.Name() != EventUpdate || fr.ID() != 2 {
		t.Fatalf("resumed stream got %s id %d, want update id 2", fr.Name(), fr.ID())
	}

	// Stale resume: generation moved while away → snapshot at current.
	resp2, br2, cancel2 := openSub(t, ts.URL, fmt.Sprintf("shape=topk&alg=sampling&u=%d&k=3", b), 1)
	defer cancel2()
	defer resp2.Body.Close()
	if fr := nextEvent(t, br2); fr.Name() != EventSnapshot || fr.ID() != 2 {
		t.Fatalf("stale resume got %s id %d, want snapshot id 2", fr.Name(), fr.ID())
	}
}

// TestSubscribeValidation pins the 4xx surface: bad shapes, bad
// algorithms, out-of-range vertices, and the indexed path on a node
// without an index are all refused before the stream starts.
func TestSubscribeValidation(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct{ name, query string }{
		{"bad shape", "shape=pairs&alg=sampling&u=1"},
		{"bad alg", "shape=score&alg=nope&u=1&v=2"},
		{"missing v", "shape=score&alg=sampling&u=1"},
		{"vertex out of range", "shape=score&alg=sampling&u=1&v=99999"},
		{"k < 1", "shape=topk&alg=sampling&u=1&k=0"},
		{"indexed without index", "shape=source&alg=indexed&u=1"},
	} {
		resp, err := http.Get(ts.URL + "/v1/subscribe?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if strings.Contains(resp.Header.Get("Content-Type"), "event-stream") {
			t.Errorf("%s: refused subscription opened a stream", tc.name)
		}
	}
}

// TestStalenessCoalescesBurst negotiates a staleness SLA and applies a
// burst of updates inside the window: the subscriber must receive ONE
// push carrying the newest generation, with the intermediate one
// folded in — one recompute for the whole burst.
func TestStalenessCoalescesBurst(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions(), SubHeartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a, b, p := firstArc(t, g)

	resp, br, cancel := openSub(t, ts.URL,
		fmt.Sprintf("shape=score&alg=sampling&u=%d&v=%d&staleness_ms=400", b, a), 0)
	defer cancel()
	defer resp.Body.Close()
	if fr := nextEvent(t, br); fr.Name() != EventSnapshot {
		t.Fatalf("first event %q, want snapshot", fr.Name())
	}

	if _, err := s.ApplyUpdates([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: p / 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyUpdates([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: p / 3}}); err != nil {
		t.Fatal(err)
	}

	fr := nextEvent(t, br)
	if fr.Name() != EventUpdate || fr.ID() != 3 {
		t.Fatalf("burst push %s id %d, want update id 3 (both generations in one push)", fr.Name(), fr.ID())
	}
	want := coldBody(t, s, "/v1/score", ScoreRequest{Alg: "sampling", U: b, V: a})
	if !bytes.Equal(fr.Data(), want) {
		t.Fatalf("coalesced push differs from cold query:\npush: %s\ncold: %s", fr.Data(), want)
	}
	st := s.subs.Snapshot(nil)
	if st.Coalesced < 1 {
		t.Fatalf("coalesced counter %d, want >= 1 (second generation folded into the pending push)", st.Coalesced)
	}
	if st.Pushes != 1 {
		t.Fatalf("pushes %d, want exactly 1 for the whole burst", st.Pushes)
	}
}

// TestReloadShrinkingGraphSendsGone reloads a graph too small for the
// watched vertices: the stream must end with a terminal "gone" event
// rather than pushing an answer for vertices that no longer exist.
func TestReloadShrinkingGraphSendsGone(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, br, cancel := openSub(t, ts.URL, "shape=topk&alg=sampling&u=63&k=3", 0)
	defer cancel()
	defer resp.Body.Close()
	if fr := nextEvent(t, br); fr.Name() != EventSnapshot {
		t.Fatalf("first event %q, want snapshot", fr.Name())
	}

	small := gen.WithUniformProbs(gen.RMAT(5, 128, 0.45, 0.22, 0.22, rng.New(3)), 0.2, 0.9, rng.New(4))
	if small.NumVertices() >= 64 {
		t.Fatalf("shrunk graph has %d vertices, want < 64", small.NumVertices())
	}
	if _, err := s.Reload(writeGraphFile(t, small), false, ""); err != nil {
		t.Fatal(err)
	}

	fr := nextEvent(t, br)
	if fr.Name() != EventGone {
		t.Fatalf("post-shrink event %q, want gone", fr.Name())
	}
	if _, err := sub.ReadFrame(br); err == nil {
		t.Fatal("stream still open after the terminal gone event")
	}
	if st := s.subs.Snapshot(nil); st.Dropped < 1 {
		t.Fatalf("dropped counter %d, want >= 1", st.Dropped)
	}
}

// TestPushCandidatesMatchColdQuery extends the equivalence suite to
// candidate-restricted source subscriptions, sampled and indexed.
func TestPushCandidatesMatchColdQuery(t *testing.T) {
	g := testGraph()
	idx := buildTestIndex(t, g, testOptions())
	s := newTestServer(t, Config{Engine: testOptions(), Index: idx})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a, b, _ := firstArc(t, g)

	cands := []int{a, b, (b + 1) % g.NumVertices()}
	candParam := fmt.Sprintf("%d,%d,%d", cands[0], cands[1], cands[2])
	gen := uint64(1)
	for i, alg := range []string{"sampling", "indexed"} {
		t.Run(alg, func(t *testing.T) {
			resp, br, cancel := openSub(t, ts.URL,
				fmt.Sprintf("shape=source&alg=%s&u=%d&candidates=%s", alg, b, candParam), 0)
			defer cancel()
			defer resp.Body.Close()

			fr := nextEvent(t, br)
			if fr.Name() != EventSnapshot || fr.ID() != gen {
				t.Fatalf("first event %s id %d, want snapshot id %d", fr.Name(), fr.ID(), gen)
			}
			want := coldBody(t, s, "/v1/source", SourceRequest{Alg: alg, U: b, Candidates: cands})
			if !bytes.Equal(fr.Data(), want) {
				t.Fatalf("candidate snapshot differs from cold query:\npush: %s\ncold: %s", fr.Data(), want)
			}

			if _, err := s.ApplyUpdates([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: 0.3 + 0.1*float64(i)}}); err != nil {
				t.Fatal(err)
			}
			gen++
			fr = nextEvent(t, br)
			if fr.Name() != EventUpdate || fr.ID() != gen {
				t.Fatalf("post-update event %s id %d, want update id %d", fr.Name(), fr.ID(), gen)
			}
			want = coldBody(t, s, "/v1/source", SourceRequest{Alg: alg, U: b, Candidates: cands})
			if !bytes.Equal(fr.Data(), want) {
				t.Fatalf("candidate push differs from cold query:\npush: %s\ncold: %s", fr.Data(), want)
			}
		})
	}
}

// TestPushReusesWalks: a twophase source subscription's pushes go
// through the engine's walk memo. The snapshot records the sides, the
// first update's push keeps their grids, and the second update's push
// reuses every chunk the update did not reach — here all of the
// candidates', which cannot reach the updated arc's head — so the third
// push is the first that /metrics shows reused walks for. Each push
// still has the bytes of a cold query, asked of a twin server that
// takes the same updates (a cold query on the subscribed server would
// count as one more request for the same sides).
func TestPushReusesWalks(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions()})
	twin := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a, b, p := firstArc(t, g)
	var cands []int
	for v, d := range ugraph.BoundedDistances([]int32{int32(b)}, 4, g) { // Steps−1 at the default Steps
		if d < 0 && len(cands) < 3 {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		t.Fatalf("every vertex reaches %d within 4 hops; the test needs candidates that do not", b)
	}
	candParam := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(cands)), ","), "[]")
	resp, br, cancel := openSub(t, ts.URL, fmt.Sprintf("shape=source&alg=twophase&u=%d&candidates=%s", b, candParam), 0)
	defer cancel()
	defer resp.Body.Close()
	reused := func() string {
		return sampleValues(get(t, s, "/metrics"))["usimrank_kernel_walks_reused_total"]
	}
	for push, np := range []float64{0, p / 2, p / 3} {
		if push > 0 { // the snapshot follows no update
			ups := []usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: np}}
			for _, srv := range []*Server{s, twin} {
				if _, err := srv.ApplyUpdates(ups); err != nil {
					t.Fatal(err)
				}
			}
		}
		fr := nextEvent(t, br)
		if want := coldBody(t, twin, "/v1/source", SourceRequest{Alg: "twophase", U: b, Candidates: cands}); !bytes.Equal(fr.Data(), want) {
			t.Fatalf("push %d differs from the cold query:\npush: %s\ncold: %s", push+1, fr.Data(), want)
		}
		switch got := reused(); {
		case push < 2 && got != "0":
			t.Fatalf("after push %d, %s walks reused, want 0", push+1, got)
		case push == 2 && got == "0":
			t.Fatalf("the third push reused no walks")
		}
	}
}

// TestScoreSelfPairSubscription covers the degenerate score shape: a
// self-pair watches one vertex, not two copies of it.
func TestScoreSelfPairSubscription(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, br, cancel := openSub(t, ts.URL, "shape=score&alg=srsp&u=5&v=5", 0)
	defer cancel()
	defer resp.Body.Close()
	fr := nextEvent(t, br)
	if fr.Name() != EventSnapshot {
		t.Fatalf("first event %q, want snapshot", fr.Name())
	}
	want := coldBody(t, s, "/v1/score", ScoreRequest{Alg: "srsp", U: 5, V: 5})
	if !bytes.Equal(fr.Data(), want) {
		t.Fatalf("self-pair snapshot differs from cold query:\npush: %s\ncold: %s", fr.Data(), want)
	}
}

// TestTopkAndFullSourceWakeWhenOnlyVSideChanges is the regression test
// for the missed-wake bug the per-side TouchedSources contract implies:
// top-k of u and the unrestricted single-source vector evaluate u
// against every vertex, so a touched v-side row can move their answer
// even when u itself is provably outside the invalidation set. Both
// shapes must be woken by such an update and push bytes identical to a
// cold query at the new generation.
func TestTopkAndFullSourceWakeWhenOnlyVSideChanges(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, b, p := firstArc(t, g)
	ups := []usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: a, V: b, P: p / 2}}
	newG, err := g.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}

	// Find a source vertex provably unaffected by the reweight: outside
	// the invalidation BFS from the changed head b.
	steps := testOptions().Steps
	if steps == 0 {
		steps = 5
	}
	horizon := steps - 1
	dist := ugraph.BoundedDistances([]int32{int32(b)}, horizon, g, newG)
	u := -1
	for v, dv := range dist {
		if (dv < 0 || int(dv) > horizon) && v != a && v != b {
			u = v
			break
		}
	}
	if u < 0 {
		t.Fatal("every vertex is touched; pick a different arc or graph")
	}

	topkResp, topkBr, topkCancel := openSub(t, ts.URL,
		fmt.Sprintf("shape=topk&alg=sampling&u=%d&k=3", u), 0)
	defer topkCancel()
	defer topkResp.Body.Close()
	srcResp, srcBr, srcCancel := openSub(t, ts.URL,
		fmt.Sprintf("shape=source&alg=sampling&u=%d", u), 0)
	defer srcCancel()
	defer srcResp.Body.Close()
	for _, br := range []*bufio.Reader{topkBr, srcBr} {
		if fr := nextEvent(t, br); fr.Name() != EventSnapshot || fr.ID() != 1 {
			t.Fatalf("first event %s id %d, want snapshot id 1", fr.Name(), fr.ID())
		}
	}

	if _, err := s.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}

	fr := nextEvent(t, topkBr)
	if fr.Name() != EventUpdate || fr.ID() != 2 {
		t.Fatalf("topk event %s id %d, want update id 2 — untouched-u top-k missed a v-side change", fr.Name(), fr.ID())
	}
	if want := coldBody(t, s, "/v1/topk", TopKRequest{Alg: "sampling", U: &u, K: 3}); !bytes.Equal(fr.Data(), want) {
		t.Fatalf("topk push differs from cold query:\npush: %s\ncold: %s", fr.Data(), want)
	}

	fr = nextEvent(t, srcBr)
	if fr.Name() != EventUpdate || fr.ID() != 2 {
		t.Fatalf("source event %s id %d, want update id 2 — untouched-u full vector missed a v-side change", fr.Name(), fr.ID())
	}
	if want := coldBody(t, s, "/v1/source", SourceRequest{Alg: "sampling", U: u}); !bytes.Equal(fr.Data(), want) {
		t.Fatalf("source push differs from cold query:\npush: %s\ncold: %s", fr.Data(), want)
	}
}
