package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"usimrank/internal/server"
)

// adaptiveShapes is the eps-bearing query surface: every shape that
// accepts an accuracy target, including the scatter-gathered pairs
// top-k whose adaptive blocks the coordinator must fold.
func adaptiveShapes(alg string) []struct{ name, path, body string } {
	return []struct{ name, path, body string }{
		{"score", "/v1/score", fmt.Sprintf(`{"alg":%q,"u":3,"v":17,"eps":0.05}`, alg)},
		{"score_delta", "/v1/score", fmt.Sprintf(`{"alg":%q,"u":3,"v":17,"eps":0.05,"delta":0.01}`, alg)},
		{"source_full", "/v1/source", fmt.Sprintf(`{"alg":%q,"u":5,"eps":0.05}`, alg)},
		{"source_cand", "/v1/source", fmt.Sprintf(`{"alg":%q,"u":2,"candidates":[1,4,9,33],"eps":0.05}`, alg)},
		{"topk_u", "/v1/topk", fmt.Sprintf(`{"alg":%q,"u":3,"k":5,"eps":0.05}`, alg)},
		{"topk_pairs", "/v1/topk", fmt.Sprintf(`{"alg":%q,"k":7,"eps":0.05}`, alg)},
	}
}

// TestClusterAdaptiveBitIdentical extends the equivalence spine to the
// adaptive path: eps-bearing queries through 1-, 2-, and 4-shard
// clusters must return bytes identical to a single resident engine —
// relayed verbatim on single-source shapes, folded (radius max, walks
// sum, rounds max, converged AND) on the scattered pairs top-k.
func TestClusterAdaptiveBitIdentical(t *testing.T) {
	g := testGraph()
	single, err := server.New(g, "test://single", server.Config{Engine: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	algs := []string{"sampling", "srsp"}
	type ref struct {
		status int
		body   []byte
	}
	refs := make(map[string]ref)
	for _, alg := range algs {
		for _, q := range adaptiveShapes(alg) {
			status, body := post(t, single, q.path, q.body)
			if status != 200 {
				t.Fatalf("single-node %s/%s: status %d: %s", alg, q.name, status, body)
			}
			if !bytes.Contains(body, []byte(`"adaptive"`)) {
				t.Fatalf("single-node %s/%s carries no adaptive block: %s", alg, q.name, body)
			}
			refs[alg+"/"+q.name] = ref{status, append([]byte(nil), body...)}
		}
	}

	for _, shardCount := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shardCount), func(t *testing.T) {
			co := bootCluster(t, g, shardCount)
			for _, alg := range algs {
				for _, q := range adaptiveShapes(alg) {
					status, body := post(t, co, q.path, q.body)
					want := refs[alg+"/"+q.name]
					if status != want.status {
						t.Fatalf("%s/%s: coordinator status %d, single node %d: %s", alg, q.name, status, want.status, body)
					}
					if !bytes.Equal(body, want.body) {
						t.Fatalf("%s/%s: coordinator bytes diverge from single node\ncoordinator: %s\nsingle node: %s",
							alg, q.name, body, want.body)
					}
				}
			}
		})
	}
}

// TestClusterAdaptivePartialUnderDeadline drives an unreachably tight
// eps with a short deadline through a 2-shard cluster: the coordinator
// must relay the node's graceful degradation — 200, partial:true, a
// committed estimate with a confidence radius — not a 504.
func TestClusterAdaptivePartialUnderDeadline(t *testing.T) {
	co := bootCluster(t, testGraph(), 2)
	status, body := post(t, co, "/v1/source", `{"alg":"sampling","u":5,"eps":1e-12,"timeout_ms":150}`)
	if status != 200 {
		t.Fatalf("deadline-pressured eps query: status %d, want 200: %s", status, body)
	}
	var resp server.SourceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatalf("want partial:true: %s", body)
	}
	if resp.Adaptive == nil || resp.Adaptive.Converged || resp.Adaptive.Radius <= 0 || resp.Adaptive.Rounds < 1 {
		t.Fatalf("partial relay carries no committed estimate: %+v", resp.Adaptive)
	}
	if len(resp.Scores) != testGraph().NumVertices() {
		t.Fatalf("partial relay has %d scores", len(resp.Scores))
	}
}

// TestCoordinatorRetryAfterOn429: admission rejection at the
// coordinator carries the same Retry-After backoff hint as a node.
func TestCoordinatorRetryAfterOn429(t *testing.T) {
	co := bootCluster(t, testGraph(), 1)
	// bootCluster leaves MaxInFlight at its (large) default; saturate
	// a dedicated coordinator instead.
	shards := co.cfg.Shards
	tight := newCoordinator(t, shards, func(c *Config) {
		c.MaxInFlight = 1
		c.AdmissionWait = -1
	})
	if got := tight.plane.Admission().AcquireTier(context.Background(), false); got == nil {
		t.Fatal("could not occupy the only slot")
	}
	req := httptest.NewRequest("POST", "/v1/score", bytes.NewReader([]byte(`{"alg":"srsp","u":0,"v":1}`)))
	rec := httptest.NewRecorder()
	tight.ServeHTTP(rec, req)
	if rec.Code != 429 {
		t.Fatalf("saturated coordinator: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}
