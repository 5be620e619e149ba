package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"usimrank"
	"usimrank/internal/server"
)

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

// TestAdminUpdateFanoutTransactional: an update through the
// coordinator must land on every endpoint — primaries AND replicas —
// at the same generation, and post-update answers must be
// bit-identical to a single node that applied the same batch.
func TestAdminUpdateFanoutTransactional(t *testing.T) {
	g := testGraph()
	au, av, ap := g.ArcEndpoints(0)

	single, err := server.New(g, "test://single", server.Config{Engine: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	co := newCoordinator(t, [][]string{
		{newShardNode(t, g).URL, newShardNode(t, g).URL}, // shard0 + replica
		{newShardNode(t, g).URL},
	}, nil)

	update := fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.123}]}`, au, av)
	status, body := post(t, co, "/v1/admin/update", update)
	if status != 200 {
		t.Fatalf("update status %d: %s", status, body)
	}
	var resp AdminResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 {
		t.Fatalf("generation = %d, want 2", resp.Generation)
	}
	if len(resp.Endpoints) != 3 {
		t.Fatalf("%d endpoint acks, want 3 (replicas must be mutated too): %+v", len(resp.Endpoints), resp.Endpoints)
	}
	for _, ack := range resp.Endpoints {
		if ack.Generation != 2 {
			t.Fatalf("endpoint %+v not at generation 2", ack)
		}
	}

	// The same batch on the single node; answers must re-converge.
	if code, b := post(t, single, "/v1/admin/update", update); code != 200 {
		t.Fatalf("single-node update status %d: %s", code, b)
	}
	for _, q := range queryShapes("srsp") {
		wantStatus, want := post(t, single, q.path, q.body)
		gotStatus, got := post(t, co, q.path, q.body)
		if gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("%s after update: coordinator (%d) %s\nsingle (%d) %s", q.name, gotStatus, got, wantStatus, want)
		}
	}

	// And the probability restored: a second fan-out, generation 3.
	restore := fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":%g}]}`, au, av, ap)
	if code, b := post(t, co, "/v1/admin/update", restore); code != 200 {
		t.Fatalf("restore status %d: %s", code, b)
	} else if err := json.Unmarshal(b, &resp); err != nil || resp.Generation != 3 {
		t.Fatalf("restore generation = %d (%v), want 3", resp.Generation, err)
	}
	st := co.Stats()
	if st.Cluster.Generation != 3 || st.Cluster.AdminOps != 2 {
		t.Fatalf("stats = gen %d adminOps %d, want 3/2", st.Cluster.Generation, st.Cluster.AdminOps)
	}
	for _, h := range st.Shards {
		if !h.Reachable || h.Generation != 3 {
			t.Fatalf("endpoint %+v not reachable at generation 3", h)
		}
	}
}

// TestAdminReloadFanout: a reload fans out and bumps every endpoint's
// generation in lockstep.
func TestAdminReloadFanout(t *testing.T) {
	g := testGraph()
	path := writeGraphFile(t, g)
	co := bootCluster(t, g, 2)
	status, body := post(t, co, "/v1/admin/reload", fmt.Sprintf(`{"graph":%q,"warm":true}`, path))
	if status != 200 {
		t.Fatalf("reload status %d: %s", status, body)
	}
	var resp AdminResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 || resp.Vertices != g.NumVertices() {
		t.Fatalf("reload response %+v", resp)
	}
	// Queries still serve, now keyed to generation 2.
	if code, b := post(t, co, "/v1/score", `{"alg":"srsp","u":3,"v":17}`); code != 200 {
		t.Fatalf("post-reload score status %d: %s", code, b)
	}
}

// TestAdminGenerationSkew: when one endpoint dies mid-fan-out, the
// mutation applies on the survivors only; the coordinator must detect
// the divergence, re-probe, and report a structured generation-skew
// error naming the dead endpoint — never a silent success.
func TestAdminGenerationSkew(t *testing.T) {
	g := testGraph()
	au, av, _ := g.ArcEndpoints(0)
	faulty, fault := newFaultyShard(t, g)
	co := newCoordinator(t, [][]string{
		{newShardNode(t, g).URL},
		{faulty.URL},
	}, func(cfg *Config) {
		cfg.ShardTimeout = 500 * time.Millisecond
		cfg.AdminProbes = 2
	})
	fault.dead.Store(true)
	faulty.CloseClientConnections()

	update := fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.5}]}`, au, av)
	status, body := post(t, co, "/v1/admin/update", update)
	if status != http.StatusBadGateway {
		t.Fatalf("skewed update status = %d, want 502: %s", status, body)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != server.CodeGenerationSkew {
		t.Fatalf("error code = %q, want %q: %s", e.Error.Code, server.CodeGenerationSkew, body)
	}
	if !bytes.Contains(body, []byte("shard1")) {
		t.Fatalf("skew error must name the divergent shard: %s", body)
	}
}

// TestAdminConsistentRejectionRelays: a batch every shard rejects
// identically (insert of an existing arc) is a relayed 400, not a
// generation skew — nothing applied anywhere, generations untouched.
func TestAdminConsistentRejectionRelays(t *testing.T) {
	g := testGraph()
	au, av, _ := g.ArcEndpoints(0)
	co := bootCluster(t, g, 2)
	status, body := post(t, co, "/v1/admin/update",
		fmt.Sprintf(`{"updates":[{"op":"insert","u":%d,"v":%d,"p":0.5}]}`, au, av))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want relayed 400: %s", status, body)
	}
	if st := co.Stats(); st.Cluster.Generation != 1 {
		t.Fatalf("generation moved to %d on a rejected batch", st.Cluster.Generation)
	}
}

// TestCoordinatorValidation: requests the coordinator can reject
// locally never touch a shard, and every invalid query gets the status
// and body bytes a node answers the same request with.
func TestCoordinatorValidation(t *testing.T) {
	g := testGraph()
	co := bootCluster(t, g, 2)
	single, err := server.New(g, "test://single", server.Config{Engine: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/score", `{"alg":"pagerank","u":0,"v":1}`, 400},
		{"/v1/score", `{"alg":"srsp","u":0,"v":1,"bogus":3}`, 400},
		{"/v1/score", `{"alg":"srsp","u":0,"v":1,"eps":-0.1}`, 400},
		{"/v1/score", `{"alg":"indexed","u":0,"v":1}`, 400},
		{"/v1/source", `{"alg":"pagerank","u":0}`, 400},
		{"/v1/source", `{"alg":"srsp","u":0,"delta":0.1}`, 400},
		{"/v1/topk", `{"alg":"srsp","k":0}`, 400},
		{"/v1/topk", `{"alg":"srsp","u":1,"k":2,"sources":[1,2]}`, 400},
		{"/v1/topk", `{"alg":"srsp","k":2,"sources":[1,1]}`, 400},
		{"/v1/topk", `{"alg":"indexed","u":1,"k":2}`, 400},
		{"/v1/batch", `{"alg":"srsp","pairs":[]}`, 400},
		{"/v1/batch", `{"alg":"indexed","pairs":[[0,1]]}`, 400},
		{"/v1/admin/update", `{"updates":[]}`, 400},
		{"/v1/admin/update", `{"updates":[{"op":"explode","u":0,"v":1}]}`, 400},
		{"/v1/admin/reload", `{"graph":""}`, 400},
		{"/v1/nope", `{}`, 404},
	}
	queryShapes := map[string]bool{"/v1/score": true, "/v1/source": true, "/v1/topk": true, "/v1/batch": true}
	for _, c := range cases {
		status, body := post(t, co, c.path, c.body)
		if status != c.status {
			t.Fatalf("%s %s: status %d, want %d: %s", c.path, c.body, status, c.status, body)
		}
		if !queryShapes[c.path] {
			continue
		}
		if wantStatus, want := post(t, single, c.path, c.body); status != wantStatus || !bytes.Equal(body, want) {
			t.Fatalf("%s %s: coordinator (%d) %s\nsingle node (%d) %s", c.path, c.body, status, body, wantStatus, want)
		}
	}
	// Out-of-range vertices are the owning shard's call — the relayed
	// 400 matches the single-node body byte for byte.
	status, body := post(t, co, "/v1/score", `{"alg":"srsp","u":999999,"v":1}`)
	if status != 400 {
		t.Fatalf("out-of-range score status %d: %s", status, body)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != server.CodeBadRequest {
		t.Fatalf("relayed 400 = %s (%v)", body, err)
	}
}

// TestBootRejectsSkewedFleet: a fleet whose shards disagree on the
// graph generation at boot cannot serve deterministic answers; New
// must refuse it.
func TestBootRejectsSkewedFleet(t *testing.T) {
	g := testGraph()
	au, av, _ := g.ArcEndpoints(0)
	ahead := newShardNode(t, g)
	// Push one shard to generation 2 behind the coordinator's back.
	req, _ := http.NewRequest("POST", ahead.URL+"/v1/admin/update",
		bytes.NewReader([]byte(fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.42}]}`, au, av))))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("direct shard update status %d", resp.StatusCode)
	}

	_, err = New(Config{Shards: [][]string{{newShardNode(t, g).URL}, {ahead.URL}}})
	if err == nil {
		t.Fatal("New accepted a generation-skewed fleet")
	}
}

// syncBuffer is a goroutine-safe log sink: the periodic logger writes
// from its own goroutine while the test polls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStatsEndpointAndLogging drives the remaining plumbing: the
// /v1/stats route through the public Handler, the timeout_ms branch,
// the periodic logger, and the small formatting helpers.
func TestStatsEndpointAndLogging(t *testing.T) {
	g := testGraph()
	var logBuf syncBuffer
	co := newCoordinator(t, [][]string{{newShardNode(t, g).URL}}, func(cfg *Config) {
		cfg.LogEvery = 10 * time.Millisecond
		cfg.Logger = log.New(&logBuf, "test ", 0)
	})

	// A query with an explicit (lowered) timeout_ms.
	if status, b := post(t, co, "/v1/score", `{"alg":"srsp","u":3,"v":17,"timeout_ms":20000}`); status != 200 {
		t.Fatalf("score with timeout_ms: status %d: %s", status, b)
	}

	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	co.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /v1/stats status %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Shards != 1 || st.Cluster.Generation != 1 || len(st.Shards) != 1 || !st.Shards[0].Reachable {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := st.Queries["shard0/score"]; !ok {
		t.Fatalf("missing per-shard histogram cell, have %v", st.Queries)
	}

	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	co.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /healthz status %d", rec.Code)
	}

	deadline := time.Now().Add(2 * time.Second)
	for logBuf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(logBuf.String(), "stats: gen=1") {
		t.Fatalf("periodic log line never appeared: %q", logBuf.String())
	}

	// Formatting helpers.
	re := &relayError{resp: &ShardResponse{Status: 400, URL: "http://x"}}
	if !strings.Contains(re.Error(), "400") {
		t.Fatalf("relayError.Error() = %q", re.Error())
	}
	long := firstLine([]byte("line one is really quite long and has a newline\nline two"))
	if !strings.HasSuffix(long, "...") {
		t.Fatalf("firstLine did not elide: %q", long)
	}
	if got := firstLine([]byte(strings.Repeat("x", 300))); len(got) > 210 {
		t.Fatalf("firstLine did not truncate: %d bytes", len(got))
	}
}

// TestAdminResyncsAfterExternalMutation: if the fleet moved on without
// the coordinator (a lost ack on a previous op, or an operator
// mutating nodes directly) but is still in lockstep, the next admin
// fan-out must adopt the fleet's agreed generation and succeed — not
// report generation-skew forever.
func TestAdminResyncsAfterExternalMutation(t *testing.T) {
	g := testGraph()
	au, av, ap := g.ArcEndpoints(0)
	nodes := [][]string{{newShardNode(t, g).URL}, {newShardNode(t, g).URL}}
	co := newCoordinator(t, nodes, nil)

	// Mutate every node directly: the fleet is consistently at
	// generation 2, the coordinator still believes 1.
	for _, eps := range nodes {
		resp, err := http.Post(eps[0]+"/v1/admin/update", "application/json",
			strings.NewReader(fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.3}]}`, au, av)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("direct update status %d", resp.StatusCode)
		}
	}

	// The coordinator expects generation 2 but the fleet acks 3; the
	// re-probe must adopt the agreed value and report success.
	status, body := post(t, co, "/v1/admin/update",
		fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":%g}]}`, au, av, ap))
	if status != 200 {
		t.Fatalf("resync update status %d: %s", status, body)
	}
	var resp AdminResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 3 {
		t.Fatalf("generation = %d, want the fleet's agreed 3", resp.Generation)
	}
	if st := co.Stats(); st.Cluster.Generation != 3 {
		t.Fatalf("coordinator state = %d, want resynced 3", st.Cluster.Generation)
	}
	// And the plane is fully healthy afterwards: the next op is clean.
	if status, b := post(t, co, "/v1/admin/update",
		fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.7}]}`, au, av)); status != 200 {
		t.Fatalf("follow-up update status %d: %s", status, b)
	}
}
