package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"usimrank"
	"usimrank/internal/gen"
	"usimrank/internal/rng"
)

// testGraph is small enough that -race runs stay fast but large enough
// that sampling splits into several chunks.
func testGraph() *usimrank.Graph {
	return gen.WithUniformProbs(gen.RMAT(6, 256, 0.45, 0.22, 0.22, rng.New(3)), 0.2, 0.9, rng.New(4))
}

// writeGraphFile serialises g to a temp file and returns its path.
func writeGraphFile(t *testing.T, g *usimrank.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.ug")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := usimrank.WriteText(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testOptions() usimrank.Options {
	return usimrank.Options{N: 400, Seed: 7, Parallelism: 4}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(testGraph(), "test://rmat6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// callE issues method path with a JSON body and decodes the JSON
// response into out, returning the HTTP status. Safe to use from any
// goroutine (no testing.T calls).
func callE(h http.Handler, method, path string, body, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return rec.Code, fmt.Errorf("%s %s: bad JSON response %q: %w", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code, nil
}

// call is callE for the test goroutine: decode failures are fatal.
func call(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	code, err := callE(h, method, path, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestEndpointsMatchEngine drives every query endpoint and pins the
// responses to direct engine calls — the HTTP plane must be a
// transport, never a different computation.
func TestEndpointsMatchEngine(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	ref, err := usimrank.New(testGraph(), testOptions())
	if err != nil {
		t.Fatal(err)
	}

	var score ScoreResponse
	if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: 3, V: 17}, &score); code != 200 {
		t.Fatalf("/v1/score status %d", code)
	}
	want, err := ref.SRSP(3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if score.Score != want {
		t.Fatalf("/v1/score = %v, engine = %v", score.Score, want)
	}

	var source SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "twophase", U: 5}, &source); code != 200 {
		t.Fatalf("/v1/source status %d", code)
	}
	wantSS, err := ref.SingleSource(usimrank.AlgTwoPhase, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(source.Scores) != len(wantSS) {
		t.Fatalf("/v1/source returned %d scores, want %d", len(source.Scores), len(wantSS))
	}
	for v := range wantSS {
		if source.Scores[v] != wantSS[v] {
			t.Fatalf("/v1/source[%d] = %v, engine = %v", v, source.Scores[v], wantSS[v])
		}
	}

	var sourceSub SourceResponse
	cands := []int{1, 9, 33}
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "sampling", U: 2, Candidates: cands}, &sourceSub); code != 200 {
		t.Fatalf("/v1/source (candidates) status %d", code)
	}
	wantSub, err := ref.SingleSourceAgainst(usimrank.AlgSampling, 2, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSub {
		if sourceSub.Scores[i] != wantSub[i] {
			t.Fatalf("/v1/source candidates[%d] = %v, engine = %v", i, sourceSub.Scores[i], wantSub[i])
		}
	}

	u := 3
	var topk TopKResponse
	if code := call(t, s, "POST", "/v1/topk", TopKRequest{Alg: "srsp", U: &u, K: 5}, &topk); code != 200 {
		t.Fatalf("/v1/topk status %d", code)
	}
	wantTK, err := usimrank.TopKSimilar(ref, usimrank.AlgSRSP, u, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Results) != len(wantTK) {
		t.Fatalf("/v1/topk returned %d results, want %d", len(topk.Results), len(wantTK))
	}
	for i, r := range wantTK {
		got := topk.Results[i]
		if got.U != r.U || got.V != r.V || got.Score != r.Score {
			t.Fatalf("/v1/topk[%d] = %+v, engine = %+v", i, got, r)
		}
	}

	var pairsResp TopKResponse
	if code := call(t, s, "POST", "/v1/topk", TopKRequest{Alg: "sampling", K: 3}, &pairsResp); code != 200 {
		t.Fatalf("/v1/topk (pairs) status %d", code)
	}
	wantPairs, err := usimrank.TopKPairs(ref, usimrank.AlgSampling, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range wantPairs {
		got := pairsResp.Results[i]
		if got.U != r.U || got.V != r.V || got.Score != r.Score {
			t.Fatalf("/v1/topk pairs[%d] = %+v, engine = %+v", i, got, r)
		}
	}

	var batch BatchResponse
	pairs := [][2]int{{0, 1}, {0, 2}, {7, 9}, {0, 1}}
	if code := call(t, s, "POST", "/v1/batch", BatchRequest{Alg: "srsp", Pairs: pairs}, &batch); code != 200 {
		t.Fatalf("/v1/batch status %d", code)
	}
	wantBatch := usimrank.Batch(ref, usimrank.AlgSRSP, pairs, 0)
	for i, r := range wantBatch {
		got := batch.Results[i]
		if got.U != r.U || got.V != r.V || got.Score != r.Value || got.Error != "" {
			t.Fatalf("/v1/batch[%d] = %+v, engine = %+v", i, got, r)
		}
	}

	var stats StatsResponse
	if code := call(t, s, "GET", "/v1/stats", nil, &stats); code != 200 {
		t.Fatalf("/v1/stats status %d", code)
	}
	if stats.Graph.Generation != 1 || stats.Graph.Vertices != testGraph().NumVertices() {
		t.Fatalf("stats graph = %+v", stats.Graph)
	}
	var total uint64
	for _, q := range stats.Queries {
		total += q.Count
	}
	if total < 6 {
		t.Fatalf("stats recorded %d queries, want >= 6", total)
	}
}

// TestValidationErrors exercises the 400 paths: unknown algorithm,
// out-of-range vertices, bad k, bad JSON, unknown route.
func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	n := testGraph().NumVertices()
	cases := []struct {
		name string
		path string
		body any
		want int
		code string
	}{
		{"bad alg", "/v1/score", ScoreRequest{Alg: "pagerank", U: 0, V: 1}, 400, CodeBadRequest},
		{"u out of range", "/v1/score", ScoreRequest{Alg: "srsp", U: n, V: 1}, 400, CodeBadRequest},
		{"negative v", "/v1/score", ScoreRequest{Alg: "srsp", U: 0, V: -1}, 400, CodeBadRequest},
		{"bad source u", "/v1/source", SourceRequest{Alg: "srsp", U: -3}, 400, CodeBadRequest},
		{"bad candidate", "/v1/source", SourceRequest{Alg: "srsp", U: 0, Candidates: []int{n + 4}}, 400, CodeBadRequest},
		{"bad k", "/v1/topk", TopKRequest{Alg: "srsp", K: 0}, 400, CodeBadRequest},
		{"empty batch", "/v1/batch", BatchRequest{Alg: "srsp"}, 400, CodeBadRequest},
		{"missing reload graph", "/v1/admin/reload", ReloadRequest{}, 400, CodeBadRequest},
		{"reload bad path", "/v1/admin/reload", ReloadRequest{Graph: "/nonexistent/graph.ug"}, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		var errResp ErrorResponse
		if code := call(t, s, "POST", tc.path, tc.body, &errResp); code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if errResp.Error.Code != tc.code {
			t.Fatalf("%s: error code %q, want %q", tc.name, errResp.Error.Code, tc.code)
		}
	}
	// Batch reports out-of-range pairs per-pair, not as request errors.
	var batch BatchResponse
	if code := call(t, s, "POST", "/v1/batch", BatchRequest{Alg: "srsp", Pairs: [][2]int{{0, 1}, {0, n + 1}}}, &batch); code != 200 {
		t.Fatalf("batch with one bad pair: status %d", code)
	}
	if batch.Results[0].Error != "" || batch.Results[1].Error == "" {
		t.Fatalf("batch per-pair errors = %+v", batch.Results)
	}
	// Unknown route and bad JSON.
	var errResp ErrorResponse
	if code := call(t, s, "GET", "/v1/nope", nil, &errResp); code != 404 || errResp.Error.Code != CodeNotFound {
		t.Fatalf("unknown route: status %d code %q", code, errResp.Error.Code)
	}
	req := httptest.NewRequest("POST", "/v1/score", bytes.NewBufferString("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad JSON: status %d", rec.Code)
	}
}

// TestAdmissionControl: with every slot occupied and no admission
// grace, a query is rejected with 429 instead of queuing.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions(), MaxInFlight: 1, AdmissionWait: -1})
	// Occupy the single slot out-of-band.
	release := s.plane.adm.AcquireTier(t.Context(), false)
	if release == nil {
		t.Fatal("could not occupy the only slot")
	}
	defer release()
	var errResp ErrorResponse
	if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: 0, V: 1}, &errResp); code != 429 {
		t.Fatalf("saturated server: status %d, want 429", code)
	}
	if errResp.Error.Code != CodeOverloaded {
		t.Fatalf("error code %q, want %q", errResp.Error.Code, CodeOverloaded)
	}
	var stats StatsResponse
	if code := call(t, s, "GET", "/v1/stats", nil, &stats); code != 200 {
		t.Fatalf("/v1/stats status %d", code)
	}
	if stats.Serving.AdmissionRejected < 1 {
		t.Fatalf("admission_rejected = %d, want >= 1", stats.Serving.AdmissionRejected)
	}
}

// TestDeadline: a heavy query under a 1ms deadline returns 504, counts
// a deadline expiry, and cancellation reclaims the sampling work.
func TestDeadline(t *testing.T) {
	opt := testOptions()
	opt.N = 2_000_000 // heavy enough that 1ms always expires first
	s := newTestServer(t, Config{Engine: opt})
	var errResp ErrorResponse
	code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "sampling", U: 0, V: 1, TimeoutMs: 1}, &errResp)
	if code != 504 {
		t.Fatalf("deadline query: status %d, want 504", code)
	}
	if errResp.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("error code %q, want %q", errResp.Error.Code, CodeDeadlineExceeded)
	}
	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Serving.DeadlineExceeded < 1 {
		t.Fatalf("deadline_exceeded = %d, want >= 1", stats.Serving.DeadlineExceeded)
	}
}

// TestReloadSwapsGraphs: a reload to a different graph changes scores
// to exactly what a fresh engine on that graph computes, and bumps the
// generation.
func TestReloadSwapsGraphs(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	g2 := gen.WithUniformProbs(gen.RMAT(6, 200, 0.4, 0.25, 0.25, rng.New(99)), 0.3, 0.8, rng.New(100))
	path := writeGraphFile(t, g2)

	var before ScoreResponse
	call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: 1, V: 2}, &before)

	var reload ReloadResponse
	if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path, Warm: true}, &reload); code != 200 {
		t.Fatalf("/v1/admin/reload status %d", code)
	}
	if reload.Generation != 2 || reload.Vertices != g2.NumVertices() || !reload.Drained {
		t.Fatalf("reload response %+v", reload)
	}

	ref2, err := usimrank.New(g2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref2.SRSP(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var after ScoreResponse
	call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: 1, V: 2}, &after)
	if after.Score != want {
		t.Fatalf("post-reload score %v, want %v (old %v)", after.Score, want, before.Score)
	}
	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Graph.Generation != 2 || stats.Graph.Reloads != 1 {
		t.Fatalf("post-reload stats graph %+v", stats.Graph)
	}
}

// TestMixedLoadWithHotSwap is the acceptance load test: 32 concurrent
// clients issue mixed query shapes against one server while the graph
// is hot-swapped (to the same graph file, so expected values stay
// fixed). Every request must succeed and return exactly the sequential
// engine's value — proving no request ever observes a torn engine —
// and the coalescing layer must record hits.
func TestMixedLoadWithHotSwap(t *testing.T) {
	g := testGraph()
	path := writeGraphFile(t, g)
	opt := testOptions()
	s, err := New(g, path, Config{Engine: opt, MaxInFlight: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Reference values from an isolated engine.
	ref, err := usimrank.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	scorePairs := [][2]int{{0, 1}, {3, 17}, {40, 2}, {5, 5}}
	wantScore := make(map[[2]int]float64)
	for _, p := range scorePairs {
		v, err := ref.SRSP(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		wantScore[p] = v
	}
	wantSource, err := ref.SingleSource(usimrank.AlgSampling, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, err := usimrank.TopKSimilar(ref, usimrank.AlgSRSP, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	batchPairs := [][2]int{{0, 1}, {0, 2}, {9, 11}}
	wantBatch := usimrank.Batch(ref, usimrank.AlgTwoPhase, batchPairs, 0)

	const clients = 32
	const iters = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for it := 0; it < iters; it++ {
				switch (c + it) % 4 {
				case 0:
					p := scorePairs[(c+it)%len(scorePairs)]
					var resp ScoreResponse
					if code, err := callE(s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: p[0], V: p[1]}, &resp); err != nil || code != 200 {
						errCh <- fmt.Errorf("score status %d: %v", code, err)
						return
					}
					if resp.Score != wantScore[p] {
						errCh <- fmt.Errorf("score(%v) = %v, want %v", p, resp.Score, wantScore[p])
						return
					}
				case 1:
					var resp SourceResponse
					if code, err := callE(s, "POST", "/v1/source", SourceRequest{Alg: "sampling", U: 7}, &resp); err != nil || code != 200 {
						errCh <- fmt.Errorf("source status %d: %v", code, err)
						return
					}
					for v := range wantSource {
						if resp.Scores[v] != wantSource[v] {
							errCh <- fmt.Errorf("source[%d] = %v, want %v", v, resp.Scores[v], wantSource[v])
							return
						}
					}
				case 2:
					u := 3
					var resp TopKResponse
					if code, err := callE(s, "POST", "/v1/topk", TopKRequest{Alg: "srsp", U: &u, K: 5}, &resp); err != nil || code != 200 {
						errCh <- fmt.Errorf("topk status %d: %v", code, err)
						return
					}
					for i, r := range wantTopK {
						got := resp.Results[i]
						if got.U != r.U || got.V != r.V || got.Score != r.Score {
							errCh <- fmt.Errorf("topk[%d] = %+v, want %+v", i, got, r)
							return
						}
					}
				case 3:
					var resp BatchResponse
					if code, err := callE(s, "POST", "/v1/batch", BatchRequest{Alg: "twophase", Pairs: batchPairs}, &resp); err != nil || code != 200 {
						errCh <- fmt.Errorf("batch status %d: %v", code, err)
						return
					}
					for i, r := range wantBatch {
						got := resp.Results[i]
						if got.Score != r.Value || got.Error != "" {
							errCh <- fmt.Errorf("batch[%d] = %+v, want %+v", i, got, r)
							return
						}
					}
				}
			}
		}(c)
	}

	close(start)
	// Two hot-swaps to the same graph file while the load runs: values
	// must stay bit-identical across generations because graph, options
	// and seed are unchanged — any divergence means a request saw a torn
	// engine.
	for i := 0; i < 2; i++ {
		var reload ReloadResponse
		if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path, Warm: i == 0}, &reload); code != 200 {
			t.Fatalf("reload %d under load: status %d", i, code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var stats StatsResponse
	if code := call(t, s, "GET", "/v1/stats", nil, &stats); code != 200 {
		t.Fatalf("/v1/stats status %d", code)
	}
	if stats.Graph.Generation != 3 {
		t.Fatalf("generation = %d, want 3 after two reloads", stats.Graph.Generation)
	}
	if stats.Coalescing.Hits == 0 {
		t.Fatalf("coalescing hits = 0 under a load of %d identical concurrent queries", clients*iters)
	}
	var total uint64
	for _, q := range stats.Queries {
		total += q.Count
	}
	if total != clients*iters {
		t.Fatalf("recorded %d queries, want %d", total, clients*iters)
	}
}

// TestTopKSourcesValidation: the sources restriction rejects
// duplicates (they would skew the merged top-k) and rejects
// combination with "u".
func TestTopKSourcesValidation(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	if code := call(t, s, "POST", "/v1/topk", TopKRequest{Alg: "srsp", K: 3, Sources: []int{1, 2, 1}}, nil); code != 400 {
		t.Fatalf("duplicate sources: status %d, want 400", code)
	}
	u := 1
	if code := call(t, s, "POST", "/v1/topk", TopKRequest{Alg: "srsp", K: 3, U: &u, Sources: []int{2}}, nil); code != 400 {
		t.Fatalf("u+sources: status %d, want 400", code)
	}
	var resp TopKResponse
	if code := call(t, s, "POST", "/v1/topk", TopKRequest{Alg: "srsp", K: 3, Sources: []int{1, 2, 5}}, &resp); code != 200 {
		t.Fatalf("valid sources: status %d", code)
	}
	if len(resp.Results) == 0 {
		t.Fatal("valid sources returned no results")
	}
}
