package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// get issues GET path against h and returns the body.
func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s status %d", path, rec.Code)
	}
	return rec.Body.String()
}

// familyLines returns an exposition's HELP and TYPE lines in order:
// each family's name, TYPE and HELP.
func familyLines(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# ") {
			out = append(out, line)
		}
	}
	return out
}

// sampleValues maps each sample of an exposition (name plus labels) to
// its value as written.
func sampleValues(body string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// jsonValues flattens a JSON object into dotted paths ("graph.reloads")
// mapped to their literal numbers; other leaves are skipped.
func jsonValues(t *testing.T, body string) map[string]string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	var root map[string]any
	if err := dec.Decode(&root); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			switch v := v.(type) {
			case map[string]any:
				walk(prefix+k+".", v)
			case json.Number:
				out[prefix+k] = v.String()
			}
		}
	}
	walk("", root)
	return out
}

// TestMetricFamiliesPinned pins the node's /metrics family list (name,
// TYPE and HELP of every family, in exposition order, index families
// included) to the list in testdata/metric_families.txt.
func TestMetricFamiliesPinned(t *testing.T) {
	g := testGraph()
	s := newTestServer(t, Config{Engine: testOptions(), Index: buildTestIndex(t, g, testOptions())})
	if code := call(t, s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: 3, V: 17}, nil); code != 200 {
		t.Fatalf("score status %d", code)
	}
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3}, nil); code != 200 {
		t.Fatalf("indexed source status %d", code)
	}
	want, err := os.ReadFile("testdata/metric_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(familyLines(get(t, s, "/metrics")), "\n") + "\n"; got != string(want) {
		t.Fatalf("family list differs from testdata/metric_families.txt; got:\n%s", got)
	}
}

// TestStatsAndMetricsAgree drives the node's counters to non-zero
// values — a reload, two updates, a subscription push, adaptive and
// indexed queries — and then checks, on the quiescent server, that
// every one-sample family with a /v1/stats field reports the field's
// value, and every query cell its counts. usimrank_uptime_seconds is
// left out: the two reads are taken at different times.
func TestStatsAndMetricsAgree(t *testing.T) {
	g := testGraph()
	idx := buildTestIndex(t, g, testOptions())
	idxPath := filepath.Join(t.TempDir(), "graph.usix")
	if err := idx.Write(idxPath); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: testOptions(), Index: idx})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: writeGraphFile(t, g), Index: idxPath}, nil); code != 200 {
		t.Fatalf("reload status %d", code)
	}
	arc := func(id int32) ArcUpdateRequest {
		u, v, p := g.ArcEndpoints(id)
		return ArcUpdateRequest{Op: "reweight", U: int(u), V: int(v), P: p / 2}
	}
	if code := call(t, s, "POST", "/v1/admin/update", UpdateRequest{Updates: []ArcUpdateRequest{arc(0), arc(1)}}, nil); code != 200 {
		t.Fatalf("update status %d", code)
	}
	resp, br, cancel := openSub(t, ts.URL, "shape=topk&alg=srsp&u=1&k=3", 0)
	defer cancel()
	defer resp.Body.Close()
	if fr := nextEvent(t, br); fr.Name() != EventSnapshot {
		t.Fatalf("first event %q, want snapshot", fr.Name())
	}
	if code := call(t, s, "POST", "/v1/admin/update", UpdateRequest{Updates: []ArcUpdateRequest{arc(2)}}, nil); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if fr := nextEvent(t, br); fr.Name() != EventUpdate {
		t.Fatalf("second event %q, want update", fr.Name())
	}
	for _, q := range []any{
		ScoreRequest{Alg: "sampling", U: 3, V: 17, Eps: 0.05},
		SourceRequest{Alg: "sampling", U: 3, Eps: 0.05},
		SourceRequest{Alg: "indexed", U: 3},
		SourceRequest{Alg: "indexed", U: 5, Candidates: []int{1, 2, 3}},
		SourceRequest{Alg: "indexed", U: 7},
		ScoreRequest{Alg: "baseline", U: 3, V: 17},
	} {
		path := "/v1/score"
		if _, ok := q.(SourceRequest); ok {
			path = "/v1/source"
		}
		if code := call(t, s, "POST", path, q, nil); code != 200 {
			t.Fatalf("%s %+v status %d", path, q, code)
		}
	}

	metrics := sampleValues(get(t, s, "/metrics"))
	statsBody := get(t, s, "/v1/stats")
	stats := jsonValues(t, statsBody)
	for _, c := range []struct {
		field, family string
		driven        bool // the traffic above moves it off zero
	}{
		{"graph.generation", "usimrank_graph_generation", true},
		{"graph.vertices", "usimrank_graph_vertices", true},
		{"graph.arcs", "usimrank_graph_arcs", true},
		{"graph.reloads", "usimrank_graph_reloads_total", true},
		{"graph.updates", "usimrank_graph_updates_total", true},
		{"graph.arcs_updated", "usimrank_graph_arcs_updated_total", true},
		{"engine.row_cache_len", "usimrank_row_cache_entries", true},
		{"engine.row_cache_cap", "usimrank_row_cache_capacity", true},
		{"engine.row_cache_evictions", "usimrank_row_cache_evictions_total", false},
		{"serving.in_flight", "usimrank_in_flight", false},
		{"serving.admission_rejected", "usimrank_admission_rejected_total", false},
		{"serving.deadline_exceeded", "usimrank_deadline_exceeded_total", false},
		{"serving.client_gone", "usimrank_client_gone_total", false},
		{"serving.adaptive_queries", "usimrank_adaptive_queries_total", true},
		{"serving.partial_results", "usimrank_partial_results_total", false},
		{"serving.adaptive_rounds", "usimrank_adaptive_rounds_total", true},
		{"serving.adaptive_early_stops", "usimrank_adaptive_early_stops_total", true},
		{"coalescing.hits", "usimrank_coalesce_hits_total", false},
		{"coalescing.misses", "usimrank_coalesce_misses_total", true},
		{"index.generation", "usimrank_index_generation", true},
		{"index.depth", "usimrank_index_depth", true},
		{"index.samples", "usimrank_index_samples", true},
		{"index.queries", "usimrank_index_queries_total", true},
		{"index.rows_probed", "usimrank_index_rows_probed_total", true},
		{"index.residual_walks", "usimrank_index_residual_walks_total", true},
		{"index.rows_patched", "usimrank_index_rows_patched_total", true},
		{"subscriptions.active", "usimrank_subscriptions_active", true},
		{"subscriptions.wakeups", "usimrank_sub_wakeups_total", true},
		{"subscriptions.pushes", "usimrank_sub_pushes_total", true},
		{"subscriptions.coalesced", "usimrank_sub_coalesced_total", false},
		{"subscriptions.dropped", "usimrank_sub_dropped_total", false},
	} {
		want, ok := stats[c.field]
		if !ok {
			t.Errorf("/v1/stats has no %s", c.field)
			continue
		}
		if got := metrics[c.family]; got != want {
			t.Errorf("%s = %q on /metrics, %s = %s on /v1/stats", c.family, got, c.field, want)
		}
		if c.driven && want == "0" {
			t.Errorf("%s stayed 0: the traffic no longer exercises it", c.field)
		}
	}

	var st StatsResponse
	if err := json.Unmarshal([]byte(statsBody), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Queries) < 4 {
		t.Fatalf("only %d query cells", len(st.Queries))
	}
	for key, q := range st.Queries {
		shape, alg, _ := strings.Cut(key, "/")
		labels := fmt.Sprintf("{shape=%q,alg=%q}", shape, alg)
		for family, want := range map[string]uint64{
			"usimrank_queries_total":               q.Count,
			"usimrank_query_errors_total":          q.Errors,
			"usimrank_query_coalesce_hits_total":   q.CoalesceHits,
			"usimrank_query_latency_seconds_count": q.Count,
		} {
			if got := metrics[family+labels]; got != fmt.Sprint(want) {
				t.Errorf("%s%s = %q on /metrics, %d on /v1/stats", family, labels, got, want)
			}
		}
	}
}
