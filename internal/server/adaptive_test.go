package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"usimrank"
)

// TestAdaptiveEndpoints drives every eps-bearing query shape and pins
// the responses — score, adaptive block and all — to direct engine
// calls: the HTTP plane must relay the adaptive trajectory, never
// re-derive it.
func TestAdaptiveEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	ref, err := usimrank.New(testGraph(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ao := usimrank.AdaptiveOptions{Eps: 0.05}
	checkBlock := func(t *testing.T, got *AdaptiveInfo, want usimrank.AdaptiveResult) {
		t.Helper()
		if got == nil {
			t.Fatal("response carries no adaptive block")
		}
		if got.Eps != 0.05 || got.Delta != usimrank.AdaptiveDefaultDelta {
			t.Fatalf("adaptive echo eps=%v delta=%v, want 0.05/%v", got.Eps, got.Delta, usimrank.AdaptiveDefaultDelta)
		}
		if got.Radius != want.Radius || got.Walks != want.Walks ||
			got.Rounds != want.Rounds || got.Converged != want.Converged {
			t.Fatalf("adaptive block %+v, engine %+v", got, want)
		}
	}

	var score ScoreResponse
	if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "sampling", U: 3, V: 17, Eps: 0.05}, &score); code != 200 {
		t.Fatalf("/v1/score eps status %d", code)
	}
	wantPair, err := ref.AdaptiveCompute(usimrank.AlgSampling, 3, 17, ao)
	if err != nil {
		t.Fatal(err)
	}
	if score.Score != wantPair.Score || score.Partial != wantPair.Partial {
		t.Fatalf("/v1/score eps = %+v, engine %+v", score, wantPair)
	}
	checkBlock(t, score.Adaptive, wantPair)

	var source SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "sampling", U: 5, Eps: 0.05}, &source); code != 200 {
		t.Fatalf("/v1/source eps status %d", code)
	}
	wantSS, err := ref.AdaptiveSingleSource(usimrank.AlgSampling, 5, ao)
	if err != nil {
		t.Fatal(err)
	}
	if len(source.Scores) != len(wantSS.Scores) {
		t.Fatalf("/v1/source eps: %d scores, want %d", len(source.Scores), len(wantSS.Scores))
	}
	for v := range wantSS.Scores {
		if source.Scores[v] != wantSS.Scores[v] {
			t.Fatalf("/v1/source eps [%d] = %v, engine %v", v, source.Scores[v], wantSS.Scores[v])
		}
	}
	checkBlock(t, source.Adaptive, wantSS)

	cands := []int{1, 9, 33}
	var sub SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "srsp", U: 2, Candidates: cands, Eps: 0.05}, &sub); code != 200 {
		t.Fatalf("/v1/source eps candidates status %d", code)
	}
	wantSub, err := ref.AdaptiveSingleSourceAgainstCtx(context.Background(), usimrank.AlgSRSP, 2, cands, ao)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSub.Scores {
		if sub.Scores[i] != wantSub.Scores[i] {
			t.Fatalf("/v1/source eps candidates[%d] = %v, engine %v", i, sub.Scores[i], wantSub.Scores[i])
		}
	}

	u := 3
	var topk TopKResponse
	if code := call(t, s, "POST", "/v1/topk", TopKRequest{Alg: "sampling", U: &u, K: 5, Eps: 0.05}, &topk); code != 200 {
		t.Fatalf("/v1/topk eps status %d", code)
	}
	wantTK, wantTKRes, err := usimrank.TopKSimilarAdaptiveCtx(context.Background(), ref, usimrank.AlgSampling, u, 5, ao)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Results) != len(wantTK) {
		t.Fatalf("/v1/topk eps: %d results, want %d", len(topk.Results), len(wantTK))
	}
	for i, r := range wantTK {
		got := topk.Results[i]
		if got.U != r.U || got.V != r.V || got.Score != r.Score {
			t.Fatalf("/v1/topk eps [%d] = %+v, engine %+v", i, got, r)
		}
	}
	checkBlock(t, topk.Adaptive, wantTKRes)

	var pairs TopKResponse
	if code := call(t, s, "POST", "/v1/topk", TopKRequest{Alg: "srsp", K: 3, Eps: 0.05}, &pairs); code != 200 {
		t.Fatalf("/v1/topk eps pairs status %d", code)
	}
	wantPK, wantPKRes, err := usimrank.TopKPairsAdaptiveCtx(context.Background(), ref, usimrank.AlgSRSP, 3, nil, ao)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range wantPK {
		got := pairs.Results[i]
		if got.U != r.U || got.V != r.V || got.Score != r.Score {
			t.Fatalf("/v1/topk eps pairs[%d] = %+v, engine %+v", i, got, r)
		}
	}
	checkBlock(t, pairs.Adaptive, wantPKRes)

	// The adaptive serving counters moved: one leader per distinct
	// query above, each converged with walks spent.
	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Serving.AdaptiveQueries < 5 || stats.Serving.AdaptiveRounds < 5 {
		t.Fatalf("adaptive counters %+v, want >= 5 queries/rounds", stats.Serving)
	}
	if stats.Serving.AdaptiveEarlyStops < 1 {
		t.Fatalf("adaptive_early_stops = %d, want >= 1", stats.Serving.AdaptiveEarlyStops)
	}
}

// TestAdaptiveIndexedEndpoint: alg:"indexed" with eps routes to the
// adaptive indexed sweep, full row and restricted candidates.
func TestAdaptiveIndexedEndpoint(t *testing.T) {
	g := testGraph()
	idx := buildTestIndex(t, g, testOptions())
	s := newTestServer(t, Config{Engine: testOptions(), Index: idx})
	ref, err := usimrank.New(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ao := usimrank.AdaptiveOptions{Eps: 0.05}

	var full SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3, Eps: 0.05}, &full); code != 200 {
		t.Fatalf("indexed eps /v1/source status %d", code)
	}
	want, err := ref.AdaptiveSingleSourceIndexedCtx(context.Background(), idx, 3, ao)
	if err != nil {
		t.Fatal(err)
	}
	if full.Adaptive == nil || full.Adaptive.Walks != want.Walks || full.Adaptive.Radius != want.Radius {
		t.Fatalf("indexed adaptive block %+v, engine %+v", full.Adaptive, want)
	}
	for v := range want.Scores {
		if full.Scores[v] != want.Scores[v] {
			t.Fatalf("indexed eps s(3,%d) = %v, engine %v", v, full.Scores[v], want.Scores[v])
		}
	}

	cands := []int{0, 1, 5, 9}
	var sub SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3, Candidates: cands, Eps: 0.05}, &sub); code != 200 {
		t.Fatalf("indexed eps candidates status %d", code)
	}
	wantC, err := ref.AdaptiveSingleSourceIndexedAgainstCtx(context.Background(), idx, 3, cands, ao)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantC.Scores {
		if sub.Scores[i] != wantC.Scores[i] {
			t.Fatalf("indexed eps candidates[%d] = %v, engine %v", i, sub.Scores[i], wantC.Scores[i])
		}
	}
}

// TestAdaptiveByteIdentity: a request without eps must produce a
// response without any adaptive artifacts — byte-identical to the
// pre-adaptive wire format.
func TestAdaptiveByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ScoreRequest{Alg: "srsp", U: 3, V: 17}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/score", &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, leak := range []string{"adaptive", "partial", "eps", "delta"} {
		if strings.Contains(body, leak) {
			t.Fatalf("non-eps response leaks %q: %s", leak, body)
		}
	}
}

// TestAdaptiveValidation covers the eps/delta 400 paths on every
// query shape that accepts them.
func TestAdaptiveValidation(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	u := 1
	cases := []struct {
		name string
		path string
		body any
	}{
		{"negative eps", "/v1/score", ScoreRequest{Alg: "srsp", U: 0, V: 1, Eps: -0.1}},
		{"delta without eps", "/v1/score", ScoreRequest{Alg: "srsp", U: 0, V: 1, Delta: 0.05}},
		{"delta too large", "/v1/score", ScoreRequest{Alg: "srsp", U: 0, V: 1, Eps: 0.05, Delta: 1}},
		{"delta negative", "/v1/score", ScoreRequest{Alg: "srsp", U: 0, V: 1, Eps: 0.05, Delta: -0.5}},
		{"source negative eps", "/v1/source", SourceRequest{Alg: "srsp", U: 0, Eps: -1}},
		{"source delta without eps", "/v1/source", SourceRequest{Alg: "srsp", U: 0, Delta: 0.1}},
		{"topk negative eps", "/v1/topk", TopKRequest{Alg: "srsp", U: &u, K: 3, Eps: -0.5}},
		{"topk delta without eps", "/v1/topk", TopKRequest{Alg: "srsp", K: 3, Delta: 0.2}},
	}
	for _, tc := range cases {
		var errResp ErrorResponse
		if code := call(t, s, "POST", tc.path, tc.body, &errResp); code != 400 {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if errResp.Error.Code != CodeBadRequest {
			t.Fatalf("%s: error code %q, want %q", tc.name, errResp.Error.Code, CodeBadRequest)
		}
	}
}

// TestAdaptivePartialUnderDeadline is the graceful-degradation
// contract end to end: an unreachably tight eps under a short
// deadline answers 200 with partial:true and the best committed
// estimate — never 504.
func TestAdaptivePartialUnderDeadline(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	var resp SourceResponse
	code := call(t, s, "POST", "/v1/source",
		SourceRequest{Alg: "sampling", U: 5, Eps: 1e-12, TimeoutMs: 150}, &resp)
	if code != 200 {
		t.Fatalf("deadline-pressured eps query: status %d, want 200", code)
	}
	if !resp.Partial {
		t.Fatalf("want partial:true, got %+v", resp.Adaptive)
	}
	if resp.Adaptive == nil || resp.Adaptive.Converged || resp.Adaptive.Radius <= 0 || resp.Adaptive.Rounds < 1 {
		t.Fatalf("partial result carries no committed estimate: %+v", resp.Adaptive)
	}
	if len(resp.Scores) != testGraph().NumVertices() {
		t.Fatalf("partial result has %d scores", len(resp.Scores))
	}
	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Serving.PartialResults < 1 {
		t.Fatalf("partial_results = %d, want >= 1", stats.Serving.PartialResults)
	}
	if stats.Serving.DeadlineExceeded != 0 {
		t.Fatalf("partial answer still counted a deadline expiry: %+v", stats.Serving)
	}
}

// TestRetryAfterOn429: an admission rejection must tell the client how
// long to back off, derived from the admission grace.
func TestRetryAfterOn429(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions(), MaxInFlight: 1, AdmissionWait: -1})
	release := s.plane.adm.AcquireTier(context.Background(), false)
	if release == nil {
		t.Fatal("could not occupy the only slot")
	}
	defer release()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ScoreRequest{Alg: "srsp", U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/score", &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 429 {
		t.Fatalf("saturated server: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

// TestRetryAfterSeconds pins the grace → header derivation: ceiling to
// whole seconds, floored at the header's 1-second resolution.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want string
	}{
		{-time.Second, "1"},
		{0, "1"},
		{100 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{2500 * time.Millisecond, "3"},
	} {
		if got := RetryAfterSeconds(tc.wait); got != tc.want {
			t.Fatalf("RetryAfterSeconds(%v) = %q, want %q", tc.wait, got, tc.want)
		}
	}
}

// TestTieredAdmission: the reserve admits cheap queries after the
// general pool saturates, never full-budget ones, and the clamp keeps
// at least one general slot.
func TestTieredAdmission(t *testing.T) {
	ctx := context.Background()
	a := NewTieredAdmission(3, 1, -1)
	r1 := a.AcquireTier(ctx, false)
	r2 := a.AcquireTier(ctx, false)
	if r1 == nil || r2 == nil {
		t.Fatal("general pool refused within capacity")
	}
	if a.AcquireTier(ctx, false) != nil {
		t.Fatal("full-budget query admitted past the general pool")
	}
	rc := a.AcquireTier(ctx, true)
	if rc == nil {
		t.Fatal("cheap query rejected despite a free reserve slot")
	}
	if a.AcquireTier(ctx, true) != nil {
		t.Fatal("cheap query admitted past the reserve")
	}
	rc()
	if rc2 := a.AcquireTier(ctx, true); rc2 == nil {
		t.Fatal("reserve slot not reusable after release")
	} else {
		rc2()
	}
	r1()
	// A freed general slot serves cheap queries first-come like any
	// other.
	if rg := a.AcquireTier(ctx, true); rg == nil {
		t.Fatal("cheap query refused a free general slot")
	}
	r2()

	// Reserve clamping: maxInFlight 1 cannot give up its only general
	// slot.
	one := NewTieredAdmission(1, 5, -1)
	if one.AcquireTier(ctx, false) == nil {
		t.Fatal("clamped semaphore refused its general slot")
	}
	if one.AcquireTier(ctx, true) != nil {
		t.Fatal("clamped semaphore still has a reserve")
	}
}

// blockFlight occupies the exact flight key a /v1/score request for
// (alg, u, v) at the server's default timeout would lead, with an
// engine-free function that blocks until the returned channel is
// closed. HTTP requests for the same triple become followers of this
// synthetic leader — giving tests deterministic control over the
// coalesced-wait window.
func blockFlight(t *testing.T, s *Server, alg usimrank.Algorithm, u, v int) (release func()) {
	t.Helper()
	q, err := (&ScoreRequest{Alg: alg.String(), U: u, V: v}).Query()
	if err != nil {
		t.Fatal(err)
	}
	h := s.engine()
	key := q.flightKey(h.gen, s.cfg.QueryTimeout)
	h.release()
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.plane.flights.Do(context.Background(), key, nil, func() func() (any, error) {
			return func() (any, error) {
				<-block
				return 0.0, nil
			}
		})
	}()
	// Wait until the flight is registered so subsequent requests are
	// guaranteed followers.
	for {
		s.plane.flights.mu.Lock()
		_, ok := s.plane.flights.m[key]
		s.plane.flights.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(block) })
		<-done
	}
}

// TestFollowerReleasesAdmissionSlot is the regression test for the
// coalescing/admission interaction bug: a follower idling on a
// leader's flight used to hold its admission slot for the whole wait,
// so a burst of identical queries could saturate admission and starve
// disjoint work. Now the follower hands its slot back before waiting.
func TestFollowerReleasesAdmissionSlot(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions(), MaxInFlight: 2, AdmissionWait: -1})
	unblock := blockFlight(t, s, usimrank.AlgSRSP, 0, 1)
	defer unblock()
	// Simulate the leader's held slot: one of two is gone.
	release := s.plane.adm.AcquireTier(context.Background(), false)
	if release == nil {
		t.Fatal("could not take the leader's slot")
	}
	defer release()

	// The follower joins the blocked flight; with the fix it gives its
	// slot back immediately and idles slot-free.
	type result struct {
		code int
		resp ScoreResponse
		err  error
	}
	followerCh := make(chan result, 1)
	go func() {
		var resp ScoreResponse
		code, err := callE(s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: 0, V: 1}, &resp)
		followerCh <- result{code, resp, err}
	}()
	// Give the follower time to be admitted, join the flight, and
	// release its slot.
	time.Sleep(200 * time.Millisecond)

	// A disjoint query must find the follower's slot free. Before the
	// fix this deterministically 429s: the follower sits on the last
	// slot while consuming nothing.
	var disjoint ScoreResponse
	if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: 2, V: 3}, &disjoint); code != 200 {
		t.Fatalf("disjoint query while a follower idles: status %d, want 200", code)
	}

	unblock()
	fr := <-followerCh
	if fr.err != nil || fr.code != 200 {
		t.Fatalf("follower: status %d err %v", fr.code, fr.err)
	}
	if !fr.resp.Coalesced {
		t.Fatal("follower did not coalesce — test lost its premise")
	}
	if fr.resp.Score != 0.0 {
		t.Fatalf("follower score %v, want the synthetic leader's 0", fr.resp.Score)
	}
}

// TestClientGoneCoalesced is the regression test for disconnect
// accounting: a client that hangs up while coalesced used to pollute
// the per-shape error counters (and attempt a write nobody reads).
// Now it counts only client_gone.
func TestClientGoneCoalesced(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	unblock := blockFlight(t, s, usimrank.AlgSRSP, 0, 1)
	defer unblock()

	ctx, hangup := context.WithCancel(context.Background())
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ScoreRequest{Alg: "srsp", U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/score", &buf).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, req)
	}()
	// Let the request coalesce onto the blocked flight, then hang up.
	time.Sleep(100 * time.Millisecond)
	hangup()
	<-done

	if got := s.metrics.ClientGone.Load(); got != 1 {
		t.Fatalf("client_gone = %d, want 1", got)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("response written to a disconnected client: %q", rec.Body.String())
	}
	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Serving.ClientGone != 1 {
		t.Fatalf("stats client_gone = %d, want 1", stats.Serving.ClientGone)
	}
	q := stats.Queries["score/SR-SP"]
	if q.Count != 1 || q.Errors != 0 {
		t.Fatalf("score/SR-SP stats %+v: a disconnect must count the query but no error", q)
	}
	// The in-flight gauge must have drained (the slot was released via
	// the follower hook, the gauge by the same once-guarded closure).
	if got := stats.Serving.InFlight; got != 0 {
		t.Fatalf("in_flight = %d after client disconnect, want 0", got)
	}
}

// TestAdaptiveMetricsExposition: the new counters surface in the
// Prometheus text format.
func TestAdaptiveMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "sampling", U: 3, V: 17, Eps: 0.05}, nil); code != 200 {
		t.Fatalf("eps score status %d", code)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"usimrank_client_gone_total",
		"usimrank_adaptive_queries_total",
		"usimrank_partial_results_total",
		"usimrank_adaptive_rounds_total",
		"usimrank_adaptive_early_stops_total",
	} {
		if !strings.Contains(body, family) {
			t.Fatalf("/metrics missing %s:\n%s", family, body)
		}
	}
	if !strings.Contains(body, "usimrank_adaptive_queries_total 1") {
		t.Fatal("/metrics did not count the adaptive query")
	}
}
