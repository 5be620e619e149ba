package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"usimrank"
	"usimrank/internal/server"
)

// expositionLine is the sample-line grammar TestMetricsExposition (in
// internal/server) and the e2e jobs check.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?[0-9.e+-]+)$`)

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

// jsonValues flattens a JSON object into dotted paths ("cluster.shards")
// mapped to their literal numbers; other leaves and arrays are skipped.
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

// countingShard boots a shard node whose handler counts every request
// it receives.
func countingShard(t *testing.T, g *usimrank.Graph, n *atomic.Int64) *httptest.Server {
	t.Helper()
	s, err := server.New(g, "test://shard", server.Config{Engine: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCoordinatorMetricsExposition scrapes the coordinator's /metrics
// after a score, a pairs top-k (which creates the per-shard cells) and
// an admin update. Every sample line must match the text-format
// grammar; every family must have exactly one HELP and one TYPE line,
// both ahead of its samples; the family list must match
// testdata/metric_families.txt; and the scrape must send no request
// to any shard.
func TestCoordinatorMetricsExposition(t *testing.T) {
	g := testGraph()
	var shardRequests atomic.Int64
	co := newCoordinator(t, [][]string{
		{countingShard(t, g, &shardRequests).URL},
		{countingShard(t, g, &shardRequests).URL},
	}, nil)
	au, av, _ := g.ArcEndpoints(0)
	for _, r := range []struct{ path, body string }{
		{"/v1/score", `{"alg":"srsp","u":3,"v":17}`},
		{"/v1/topk", `{"alg":"sampling","k":5}`},
		{"/v1/admin/update", fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.5}]}`, au, av)},
	} {
		if code, b := post(t, co, r.path, r.body); code != 200 {
			t.Fatalf("%s status %d: %s", r.path, code, b)
		}
	}

	before := shardRequests.Load()
	rec := httptest.NewRecorder()
	co.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if n := shardRequests.Load() - before; n != 0 {
		t.Fatalf("a /metrics scrape sent %d requests to the shards", n)
	}
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Result().Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()

	help := make(map[string]int)
	typ := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			help[name]++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if typ[name] != "" {
				t.Errorf("family %s has two TYPE lines", name)
			}
			typ[name] = kind
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		family := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suffix); ok && typ[base] == "histogram" {
				family = base
			}
		}
		if help[family] != 1 || typ[family] == "" {
			t.Fatalf("sample %q is not preceded by one HELP and one TYPE line of its family", line)
		}
	}
	for name, n := range help {
		if n != 1 || typ[name] == "" {
			t.Errorf("family %s: %d HELP lines, TYPE %q", name, n, typ[name])
		}
	}

	want, err := os.ReadFile("testdata/metric_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(familyLines(body), "\n") + "\n"; got != string(want) {
		t.Fatalf("family list differs from testdata/metric_families.txt; got:\n%s", got)
	}

	// The counter does see traffic: /v1/stats probes every endpoint.
	get(t, co, "/v1/stats")
	if shardRequests.Load() == before {
		t.Fatal("the /v1/stats probe reached no shard: the request counter is not wired")
	}
}

// TestCoordinatorStatsAndMetricsAgree drives the coordinator's
// counters to non-zero values — a reload, two updates, a relayed
// subscription push and queries over a fleet whose first shard has a
// replica — and then checks, on the quiescent coordinator, that every
// one-sample family with a /v1/stats field reports the field's value,
// and every query and shard cell its counts. usimrank_uptime_seconds is
// left out: the two reads are taken at different times.
func TestCoordinatorStatsAndMetricsAgree(t *testing.T) {
	g := testGraph()
	co := newCoordinator(t, [][]string{
		{newShardNode(t, g).URL, newShardNode(t, g).URL},
		{newShardNode(t, g).URL},
	}, nil)
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	update := func(ids ...int32) {
		t.Helper()
		var ups []string
		for _, id := range ids {
			u, v, p := g.ArcEndpoints(id)
			ups = append(ups, fmt.Sprintf(`{"op":"reweight","u":%d,"v":%d,"p":%v}`, u, v, p/2))
		}
		if code, b := post(t, co, "/v1/admin/update", `{"updates":[`+strings.Join(ups, ",")+`]}`); code != 200 {
			t.Fatalf("update status %d: %s", code, b)
		}
	}
	if code, b := post(t, co, "/v1/admin/reload", fmt.Sprintf(`{"graph":%q}`, writeGraphFile(t, g))); code != 200 {
		t.Fatalf("reload status %d: %s", code, b)
	}
	update(0, 1)
	resp, br, cancel := openRelaySub(t, cts.URL, "shape=topk&alg=srsp&u=1&k=3")
	defer cancel()
	defer resp.Body.Close()
	if fr := nextRelayEvent(t, br); fr.Name() != server.EventSnapshot {
		t.Fatalf("first relayed event %q, want snapshot", fr.Name())
	}
	update(2)
	if fr := nextRelayEvent(t, br); fr.Name() != server.EventUpdate {
		t.Fatalf("second relayed event %q, want update", fr.Name())
	}
	for _, r := range []struct{ path, body string }{
		{"/v1/score", `{"alg":"srsp","u":3,"v":17}`},
		{"/v1/topk", `{"alg":"sampling","k":5}`},
		{"/v1/batch", `{"alg":"twophase","pairs":[[1,2],[3,4],[5,6]]}`},
	} {
		if code, b := post(t, co, r.path, r.body); code != 200 {
			t.Fatalf("%s status %d: %s", r.path, code, b)
		}
	}

	metrics := sampleValues(get(t, co, "/metrics"))
	statsBody := get(t, co, "/v1/stats")
	stats := jsonValues(t, statsBody)
	for _, c := range []struct {
		field, family string
		driven        bool // the traffic above moves it off zero
	}{
		{"cluster.generation", "usimrank_cluster_generation", true},
		{"cluster.shards", "usimrank_cluster_shards", true},
		{"cluster.endpoints", "usimrank_cluster_endpoints", true},
		{"cluster.vertices", "usimrank_graph_vertices", true},
		{"cluster.arcs", "usimrank_graph_arcs", true},
		{"cluster.admin_ops", "usimrank_admin_ops_total", true},
		{"serving.in_flight", "usimrank_in_flight", false},
		{"serving.admission_rejected", "usimrank_admission_rejected_total", false},
		{"serving.deadline_exceeded", "usimrank_deadline_exceeded_total", false},
		{"serving.client_gone", "usimrank_client_gone_total", false},
		{"serving.adaptive_queries", "usimrank_adaptive_queries_total", false},
		{"serving.partial_results", "usimrank_partial_results_total", false},
		{"serving.adaptive_rounds", "usimrank_adaptive_rounds_total", false},
		{"serving.adaptive_early_stops", "usimrank_adaptive_early_stops_total", false},
		{"coalescing.hits", "usimrank_coalesce_hits_total", false},
		{"coalescing.misses", "usimrank_coalesce_misses_total", true},
		{"subscriptions.active", "usimrank_subscriptions_active", true},
		{"subscriptions.wakeups", "usimrank_sub_wakeups_total", false},
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
	shardCells := 0
	for key, q := range st.Queries {
		first, second, _ := strings.Cut(key, "/")
		counts := map[string]uint64{
			"usimrank_queries_total":               q.Count,
			"usimrank_query_errors_total":          q.Errors,
			"usimrank_query_coalesce_hits_total":   q.CoalesceHits,
			"usimrank_query_latency_seconds_count": q.Count,
		}
		labels := fmt.Sprintf("{shape=%q,alg=%q}", first, second)
		if strings.HasPrefix(first, "shard") {
			shardCells++
			counts = map[string]uint64{
				"usimrank_shard_requests_total":                q.Count,
				"usimrank_shard_request_errors_total":          q.Errors,
				"usimrank_shard_request_latency_seconds_count": q.Count,
			}
			labels = fmt.Sprintf("{shard=%q,shape=%q}", first, second)
		}
		for family, want := range counts {
			if got := metrics[family+labels]; got != fmt.Sprint(want) {
				t.Errorf("%s%s = %q on /metrics, %d on /v1/stats", family, labels, got, want)
			}
		}
	}
	if shardCells == 0 || shardCells == len(st.Queries) {
		t.Fatalf("want both query and shard cells, have %v", st.Queries)
	}
}
