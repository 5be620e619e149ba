package server

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"usimrank"
)

// firstArc returns some potential arc (u, v, p) of g.
func firstArc(t *testing.T, g *usimrank.Graph) (int, int, float64) {
	t.Helper()
	for u := 0; u < g.NumVertices(); u++ {
		if out := g.Out(u); len(out) > 0 {
			return u, int(out[0]), g.OutProbs(u)[0]
		}
	}
	t.Fatal("graph has no arcs")
	return 0, 0, 0
}

// TestUpdateEndpointAppliesIncrementally mutates one arc through the
// endpoint and pins the post-update responses to a from-scratch engine
// over the mutated graph, for every algorithm — the serving-plane face
// of the ApplyUpdates bit-identity invariant.
func TestUpdateEndpointAppliesIncrementally(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions()})
	u, v, _ := firstArc(t, g)

	// Warm the resident engine so the update actually exercises
	// carry-over, not just recompute.
	var warm ScoreResponse
	call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: u, V: v}, &warm)
	call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "baseline", U: u, V: v}, &warm)

	ups := []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: 0.42}}
	var resp UpdateResponse
	if code := call(t, s, "POST", "/v1/admin/update", UpdateRequest{Updates: ups}, &resp); code != 200 {
		t.Fatalf("/v1/admin/update status %d", code)
	}
	if resp.Generation != 2 || resp.Applied != 1 || !resp.Drained {
		t.Fatalf("update response %+v", resp)
	}
	if !resp.FiltersPatched {
		t.Fatalf("warm SR-SP filters were not patched: %+v", resp)
	}

	mut, err := g.Apply([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: u, V: v, P: 0.42}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := usimrank.New(mut, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"baseline", "sampling", "twophase", "srsp"} {
		a, err := usimrank.ParseAlgorithm(alg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Compute(a, u, v)
		if err != nil {
			t.Fatal(err)
		}
		var got ScoreResponse
		if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: alg, U: u, V: v}, &got); code != 200 {
			t.Fatalf("post-update %s score status %d", alg, code)
		}
		if got.Score != want {
			t.Fatalf("post-update %s score %v, want rebuilt %v", alg, got.Score, want)
		}
	}

	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Graph.Generation != 2 || stats.Graph.Updates != 1 || stats.Graph.ArcsUpdated != 1 {
		t.Fatalf("post-update stats graph %+v", stats.Graph)
	}
}

func TestUpdateValidation(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions(), MaxUpdateBatch: 2})
	g := testGraph()
	u, v, _ := firstArc(t, g)

	cases := []struct {
		name string
		req  UpdateRequest
	}{
		{"empty batch", UpdateRequest{}},
		{"unknown op", UpdateRequest{Updates: []ArcUpdateRequest{{Op: "upsert", U: 0, V: 1, P: 0.5}}}},
		{"insert existing", UpdateRequest{Updates: []ArcUpdateRequest{{Op: "insert", U: u, V: v, P: 0.5}}}},
		{"bad probability", UpdateRequest{Updates: []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: 1.5}}}},
		{"oversized batch", UpdateRequest{Updates: []ArcUpdateRequest{
			{Op: "reweight", U: u, V: v, P: 0.5},
			{Op: "reweight", U: u, V: v, P: 0.6},
			{Op: "reweight", U: u, V: v, P: 0.7},
		}}},
	}
	for _, c := range cases {
		var errResp ErrorResponse
		if code := call(t, s, "POST", "/v1/admin/update", c.req, &errResp); code != 400 {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
		if errResp.Error.Code != CodeBadRequest {
			t.Errorf("%s: error code %q", c.name, errResp.Error.Code)
		}
	}
	// Rejected batches must leave the resident engine untouched.
	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Graph.Generation != 1 || stats.Graph.Updates != 0 {
		t.Fatalf("rejected updates mutated the server: %+v", stats.Graph)
	}
	// Malformed JSON body.
	req := httptest.NewRequest("POST", "/v1/admin/update", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad JSON body: status %d, want 400", rec.Code)
	}
}

func TestUpdatesDisabled(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions(), MaxUpdateBatch: -1})
	g := testGraph()
	u, v, _ := firstArc(t, g)
	var errResp ErrorResponse
	if code := call(t, s, "POST", "/v1/admin/update",
		UpdateRequest{Updates: []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: 0.5}}}, &errResp); code != 400 {
		t.Fatalf("disabled updates: status %d, want 400", code)
	}
	if errResp.Error.Code != CodeBadRequest {
		t.Fatalf("disabled updates: error %+v", errResp.Error)
	}
}

// TestMixedLoadWithUpdates is the dynamic-update acceptance load test:
// 32 concurrent clients issue mixed query shapes while arc updates land
// mid-flight. The update batches are net no-ops on the graph (an insert
// immediately undone by a delete), so the graph content is identical in
// every generation — yet each batch runs the full swap machinery
// (generation bump, handle swap, targeted invalidation, filter patch).
// Every response must therefore be bit-identical to the sequential
// reference engine: any divergence means a request observed a torn or
// stale-merged state. Runs under -race in CI.
func TestMixedLoadWithUpdates(t *testing.T) {
	g := testGraph()
	opt := testOptions()
	s, err := New(g, "test://rmat6", Config{Engine: opt, MaxInFlight: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref, err := usimrank.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	scorePairs := [][2]int{{0, 1}, {3, 17}, {40, 2}, {5, 5}}
	wantScore := make(map[[2]int]float64)
	for _, p := range scorePairs {
		w, err := ref.SRSP(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		wantScore[p] = w
	}
	wantSource, err := ref.SingleSource(usimrank.AlgSampling, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, err := usimrank.TopKSimilar(ref, usimrank.AlgSRSP, 3, 5)
	if err != nil {
		t.Fatal(err)
	}

	// A vertex pair with no arc in either direction, for the no-op
	// insert+delete batches.
	freeU, freeV := -1, -1
	for u := 0; u < g.NumVertices() && freeU < 0; u++ {
		for v := 0; v < g.NumVertices(); v++ {
			if u != v && !g.HasArc(u, v) {
				freeU, freeV = u, v
				break
			}
		}
	}
	if freeU < 0 {
		t.Fatal("graph is complete; no free arc slot")
	}

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
				switch (c + it) % 3 {
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
				}
			}
		}(c)
	}

	close(start)
	const batches = 3
	for i := 0; i < batches; i++ {
		var resp UpdateResponse
		req := UpdateRequest{Updates: []ArcUpdateRequest{
			{Op: "insert", U: freeU, V: freeV, P: 0.5},
			{Op: "delete", U: freeU, V: freeV},
		}}
		if code := call(t, s, "POST", "/v1/admin/update", req, &resp); code != 200 {
			t.Fatalf("update %d under load: status %d", i, code)
		}
		if resp.Arcs != g.NumArcs() {
			t.Fatalf("net no-op batch changed arc count: %d vs %d", resp.Arcs, g.NumArcs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Graph.Generation != 1+batches || stats.Graph.Updates != batches {
		t.Fatalf("post-load stats graph %+v", stats.Graph)
	}
}

// TestHandlerAndWarmFilters covers the mount-and-warm path usimd boots
// through: Handler serves the same mux, WarmFilters pre-builds pools.
func TestHandlerAndWarmFilters(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	s.WarmFilters()
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz via Handler: %d %q", rec.Code, rec.Body.String())
	}
}

// TestMetricCountersSurviveUpdates scrapes /metrics before and after
// each of two incremental updates and requires every _total sample to
// be non-decreasing: the engine's kernel and row-cache counters carry
// over to the successor generation instead of restarting at zero. The
// update phase family must report every phase.
func TestMetricCountersSurviveUpdates(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions()})
	u, v, p := firstArc(t, g)
	for _, alg := range []string{"twophase", "srsp", "sampling_v2", "twophase"} {
		if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: alg, U: u, V: v}, nil); code != 200 {
			t.Fatalf("%s score status %d", alg, code)
		}
	}
	scrapes := []map[string]string{sampleValues(get(t, s, "/metrics"))}
	for _, name := range []string{"usimrank_kernel_walks_total", "usimrank_kernel_arcs_instantiated_total", "usimrank_row_cache_hits_total", "usimrank_row_cache_misses_total"} {
		if scrapes[0][name] == "0" {
			t.Fatalf("%s is 0 before the updates; the test needs it live", name)
		}
	}
	for _, np := range []float64{p / 2, p / 3} {
		ups := []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: np}}
		if code := call(t, s, "POST", "/v1/admin/update", UpdateRequest{Updates: ups}, nil); code != 200 {
			t.Fatalf("/v1/admin/update status %d", code)
		}
		scrapes = append(scrapes, sampleValues(get(t, s, "/metrics")))
	}
	last := scrapes[len(scrapes)-1]
	for _, phase := range updatePhases {
		key := `usimrank_update_phase_seconds_total{phase="` + phase + `"}`
		if _, ok := last[key]; !ok {
			t.Errorf("%s missing after two updates", key)
		}
	}
	if v := last[`usimrank_update_phase_seconds_total{phase="compact"}`]; v == "0" {
		t.Errorf("two updates recorded no compaction time")
	}
	requireTotalsNonDecreasing(t, scrapes, "an update")
}

// requireTotalsNonDecreasing fails t for every _total sample that falls
// or disappears between consecutive scrapes, except in the exempt
// families; across names what happened between two scrapes.
func requireTotalsNonDecreasing(t *testing.T, scrapes []map[string]string, across string, exempt ...string) {
	t.Helper()
	for i := 1; i < len(scrapes); i++ {
		for key, before := range scrapes[i-1] {
			if name, _, _ := strings.Cut(key, "{"); !strings.HasSuffix(name, "_total") || slices.Contains(exempt, name) {
				continue
			}
			after, ok := scrapes[i][key]
			if !ok {
				t.Errorf("scrape %d: %s disappeared", i, key)
				continue
			}
			var b, a float64
			if _, err := fmt.Sscan(before, &b); err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Sscan(after, &a); err != nil {
				t.Fatal(err)
			}
			if a < b {
				t.Errorf("scrape %d: %s fell from %s to %s across %s", i, key, before, after, across)
			}
		}
	}
}

// TestMetricCountersSurviveReload is TestMetricCountersSurviveUpdates
// with a reload step: /v1/admin/reload builds a fresh engine, which must
// continue the replaced engine's lifetime counters — kernel walks and
// arc instantiations, row-cache hits, misses and evictions, filter
// re-samples — instead of restarting them at zero. The scratch pool is
// the new engine's own, so its checkout counts restart.
func TestMetricCountersSurviveReload(t *testing.T) {
	g := testGraph()
	path := writeGraphFile(t, g)
	s := newTestServer(t, Config{Engine: testOptions()})
	u, v, p := firstArc(t, g)
	score := func(alg string, u, v int) {
		t.Helper()
		if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: alg, U: u, V: v}, nil); code != 200 {
			t.Fatalf("%s score status %d", alg, code)
		}
	}
	for _, alg := range []string{"twophase", "srsp", "sampling_v2", "twophase"} {
		score(alg, u, v)
	}
	// An update invalidates v's filters; an SR-SP query from v re-samples them.
	ups := []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: p / 2}}
	if code := call(t, s, "POST", "/v1/admin/update", UpdateRequest{Updates: ups}, nil); code != 200 {
		t.Fatalf("/v1/admin/update status %d", code)
	}
	score("srsp", v, u)
	scrapes := []map[string]string{sampleValues(get(t, s, "/metrics"))}
	for _, name := range []string{"usimrank_kernel_walks_total", "usimrank_kernel_arcs_instantiated_total",
		"usimrank_row_cache_hits_total", "usimrank_row_cache_misses_total", "usimrank_kernel_filter_vertices_resampled_total"} {
		if scrapes[0][name] == "0" {
			t.Fatalf("%s is 0 before the reload; the test needs it live", name)
		}
	}
	for _, warm := range []bool{false, true} {
		if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path, Warm: warm}, nil); code != 200 {
			t.Fatalf("/v1/admin/reload status %d", code)
		}
		scrapes = append(scrapes, sampleValues(get(t, s, "/metrics")))
		score("twophase", u, v)
		scrapes = append(scrapes, sampleValues(get(t, s, "/metrics")))
	}
	requireTotalsNonDecreasing(t, scrapes, "a reload",
		"usimrank_kernel_scratch_gets_total", "usimrank_kernel_scratch_misses_total")
}
