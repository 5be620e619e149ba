package server

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"usimrank"
)

// buildTestIndex builds a reverse-walk index for g under opt, exactly
// as usim-index would.
func buildTestIndex(t *testing.T, g *usimrank.Graph, opt usimrank.Options) *usimrank.Index {
	t.Helper()
	e, err := usimrank.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	x, err := usimrank.BuildIndex(e)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestIndexedServing boots a server with a resident index and pins the
// alg:"indexed" source path to a direct engine call, then checks the
// stats plane reports the probe/residual accounting.
func TestIndexedServing(t *testing.T) {
	g := testGraph()
	idx := buildTestIndex(t, g, testOptions())
	s := newTestServer(t, Config{Engine: testOptions(), Index: idx})

	ref, err := usimrank.New(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	var full SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3}, &full); code != 200 {
		t.Fatalf("indexed /v1/source status %d", code)
	}
	want, err := ref.SingleSourceIndexed(idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Scores) != len(want) {
		t.Fatalf("indexed scores length %d, want %d", len(full.Scores), len(want))
	}
	for v := range want {
		if full.Scores[v] != want[v] {
			t.Fatalf("indexed s(3,%d) = %v, engine = %v", v, full.Scores[v], want[v])
		}
	}

	cands := []int{0, 1, 5, 9}
	var restricted SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "Indexed", U: 3, Candidates: cands}, &restricted); code != 200 {
		t.Fatalf("indexed candidate /v1/source status %d", code)
	}
	wantC, err := ref.SingleSourceIndexedAgainst(idx, 3, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantC {
		if restricted.Scores[i] != wantC[i] {
			t.Fatalf("indexed s(3,%d) = %v, engine = %v", cands[i], restricted.Scores[i], wantC[i])
		}
	}

	// The sampling path must keep serving unchanged next to the index.
	var sampled SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "sampling", U: 3}, &sampled); code != 200 {
		t.Fatalf("sampling /v1/source status %d", code)
	}

	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	is := stats.Index
	if is == nil {
		t.Fatal("stats has no index section with a resident index")
	}
	if is.Generation != idx.Generation() || is.Vertices != g.NumVertices() || is.Samples != testOptions().N {
		t.Fatalf("index stats header %+v", is)
	}
	if is.Queries != 2 {
		t.Fatalf("index queries %d, want 2", is.Queries)
	}
	steps := idx.Depth() + 1
	wantProbed := uint64((g.NumVertices() + len(cands)) * steps)
	if is.RowsProbed != wantProbed {
		t.Fatalf("rows probed %d, want %d", is.RowsProbed, wantProbed)
	}
	if is.ResidualWalks != uint64(2*testOptions().N) {
		t.Fatalf("residual walks %d, want %d", is.ResidualWalks, 2*testOptions().N)
	}
	if is.ProbeRatio <= 0 || is.ProbeRatio >= 1 {
		t.Fatalf("probe ratio %v outside (0,1)", is.ProbeRatio)
	}
}

// TestIndexedWithoutIndexIs400 asks for the indexed algorithm on a
// server serving without one: a structured 400, not a fallback to
// sampling the caller did not ask for.
func TestIndexedWithoutIndexIs400(t *testing.T) {
	s := newTestServer(t, Config{Engine: testOptions()})
	var errResp ErrorResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3}, &errResp); code != 400 {
		t.Fatalf("indexed without index: status %d, want 400", code)
	}
	if errResp.Error.Code != CodeBadRequest {
		t.Fatalf("error code %q", errResp.Error.Code)
	}

	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Index != nil {
		t.Fatalf("stats reports an index section without an index: %+v", stats.Index)
	}
}

// TestBootRejectsMismatchedIndex builds the index under a different
// seed: server construction must fail rather than serve estimates the
// walk streams cannot back.
func TestBootRejectsMismatchedIndex(t *testing.T) {
	g := testGraph()
	opt := testOptions()
	opt.Seed++
	idx := buildTestIndex(t, g, opt)
	if _, err := New(g, "test://rmat6", Config{Engine: testOptions(), Index: idx}); err == nil {
		t.Fatal("New accepted an index built under a different seed")
	}
}

// TestUpdatePatchesResidentIndex applies an incremental update on a
// server holding an index and verifies the patched index keeps serving:
// the response reports patched rows, the stats generation follows the
// engine, and post-update indexed answers are bit-identical to a fresh
// build on the mutated graph.
func TestUpdatePatchesResidentIndex(t *testing.T) {
	g := testGraph()
	idx := buildTestIndex(t, g, testOptions())
	s := newTestServer(t, Config{Engine: testOptions(), Index: idx})
	u, v, _ := firstArc(t, g)

	ups := []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: 0.37}}
	var resp UpdateResponse
	if code := call(t, s, "POST", "/v1/admin/update", UpdateRequest{Updates: ups}, &resp); code != 200 {
		t.Fatalf("/v1/admin/update status %d", code)
	}
	if resp.Generation != 2 || resp.IndexRowsPatched < 1 {
		t.Fatalf("update response %+v: want generation 2 and patched rows", resp)
	}

	mut, err := g.Apply([]usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: u, V: v, P: 0.37}})
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := usimrank.New(mut, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	freshIdx, err := usimrank.BuildIndex(refEng)
	if err != nil {
		t.Fatal(err)
	}
	// The serving engine's generation is 2 (derived), the fresh
	// rebuild's is 1; scores do not depend on the generation stamp, so
	// compare through the kernel on the fresh pair.
	want, err := refEng.SingleSourceIndexed(freshIdx, u)
	if err != nil {
		t.Fatal(err)
	}
	var got SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: u}, &got); code != 200 {
		t.Fatalf("post-update indexed /v1/source status %d", code)
	}
	for i := range want {
		if got.Scores[i] != want[i] {
			t.Fatalf("post-update indexed s(%d,%d) = %v, fresh rebuild = %v", u, i, got.Scores[i], want[i])
		}
	}

	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Index == nil {
		t.Fatal("index section gone after update")
	}
	if stats.Index.Generation != 2 {
		t.Fatalf("index generation %d after update, want 2", stats.Index.Generation)
	}
	if stats.Index.RowsPatched != uint64(resp.IndexRowsPatched) {
		t.Fatalf("stats rows patched %d, response %d", stats.Index.RowsPatched, resp.IndexRowsPatched)
	}
}

// mappings counts the memory mappings of path in this process, or
// returns -1 where /proc/self/maps is not available.
func mappings(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, path) {
			n++
		}
	}
	return n
}

// TestReloadIndexLifecycle exercises both reload paths: a reload
// without an index drops the resident one (the old index describes the
// old engine), and a reload naming an index file loads and serves it.
// Where /proc/self/maps exists it also checks that no mapping leaks: a
// rejected index is unmapped at once, an update keeps the mapping its
// patched successor shares, and a reload unmaps the replaced lineage.
func TestReloadIndexLifecycle(t *testing.T) {
	g := testGraph()
	idx := buildTestIndex(t, g, testOptions())
	s := newTestServer(t, Config{Engine: testOptions(), Index: idx})
	path := writeGraphFile(t, g)

	var rel ReloadResponse
	if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path}, &rel); code != 200 {
		t.Fatalf("reload status %d", code)
	}
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3}, nil); code != 400 {
		t.Fatalf("indexed after index-less reload: status %d, want 400", code)
	}

	// A reload engine starts a fresh lineage at generation 1, so an
	// index built offline for the same graph and options slots in.
	idxPath := filepath.Join(t.TempDir(), "graph.usix")
	if err := idx.Write(idxPath); err != nil {
		t.Fatal(err)
	}
	if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path, Index: idxPath}, &rel); code != 200 {
		t.Fatalf("reload with index status %d", code)
	}
	var src SourceResponse
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3}, &src); code != 200 {
		t.Fatalf("indexed after reload with index: status %d", code)
	}

	var stats StatsResponse
	call(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Index == nil || stats.Index.Generation != 1 {
		t.Fatalf("index stats after reload: %+v", stats.Index)
	}
	procMaps := mappings(t, idxPath) >= 0
	if procMaps && mappings(t, idxPath) == 0 {
		t.Fatal("loaded index is not mapped")
	}

	// An update patches the loaded index; the successor views the same
	// mapping, so it must stay mapped and keep serving.
	u, v, _ := firstArc(t, g)
	if code := call(t, s, "POST", "/v1/admin/update", UpdateRequest{Updates: []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: 0.37}}}, nil); code != 200 {
		t.Fatalf("update status %d", code)
	}
	if procMaps && mappings(t, idxPath) == 0 {
		t.Fatal("update unmapped the index its patched successor shares")
	}
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3}, &src); code != 200 {
		t.Fatalf("indexed after update: status %d", code)
	}

	// A reload whose index does not match the new engine must fail
	// whole: the old generation keeps serving.
	badOpt := testOptions()
	badOpt.Seed++
	badIdx := buildTestIndex(t, g, badOpt)
	badPath := filepath.Join(t.TempDir(), "bad.usix")
	if err := badIdx.Write(badPath); err != nil {
		t.Fatal(err)
	}
	var errResp ErrorResponse
	if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path, Index: badPath}, &errResp); code == 200 {
		t.Fatal("reload accepted a mismatched index")
	}
	if code := call(t, s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: 3}, &src); code != 200 {
		t.Fatalf("old index stopped serving after failed reload: status %d", code)
	}
	if procMaps && mappings(t, badPath) != 0 {
		t.Fatalf("rejected index left %d mappings", mappings(t, badPath))
	}

	// A reload replaces the lineage: once the old handle drains, its
	// index is unmapped.
	if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path}, &rel); code != 200 || !rel.Drained {
		t.Fatalf("final reload: status %d, drained %v", code, rel.Drained)
	}
	if procMaps && mappings(t, idxPath) != 0 {
		t.Fatalf("replaced index left %d mappings", mappings(t, idxPath))
	}
}

// TestIndexMappingUnderConcurrentSwaps serves indexed queries from
// several goroutines while the admin plane alternates reloads that load
// the index file (a new lineage and mapping each time), updates that
// patch it, and reloads without it. A mapping closed while a request
// could still probe it would fault the process; every query must answer
// 200 (index resident) or 400 (none). Once the last lineage is replaced
// no mapping of the file remains.
func TestIndexMappingUnderConcurrentSwaps(t *testing.T) {
	g := testGraph()
	idxPath := filepath.Join(t.TempDir(), "graph.usix")
	if err := buildTestIndex(t, g, testOptions()).Write(idxPath); err != nil {
		t.Fatal(err)
	}
	boot, err := usimrank.LoadIndexFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: testOptions(), Index: boot})
	path := writeGraphFile(t, g)
	u, v, p := firstArc(t, g)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, err := callE(s, "POST", "/v1/source", SourceRequest{Alg: "indexed", U: (r + i) % g.NumVertices()}, nil)
				if err != nil || (code != 200 && code != 400) {
					t.Errorf("reader %d: indexed query status %d, err %v", r, code, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 6; i++ {
		ops := []struct {
			path string
			body any
		}{
			{"/v1/admin/update", UpdateRequest{Updates: []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: p / float64(i+2)}}}},
			{"/v1/admin/reload", ReloadRequest{Graph: path}},
			{"/v1/admin/reload", ReloadRequest{Graph: path, Index: idxPath}},
			{"/v1/admin/update", UpdateRequest{Updates: []ArcUpdateRequest{{Op: "reweight", U: u, V: v, P: p}}}},
		}
		for _, op := range ops {
			if code, err := callE(s, "POST", op.path, op.body, nil); err != nil || code != 200 {
				t.Fatalf("round %d %s: status %d, err %v", i, op.path, code, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if code := call(t, s, "POST", "/v1/admin/reload", ReloadRequest{Graph: path}, nil); code != 200 {
		t.Fatalf("final reload status %d", code)
	}
	if n := mappings(t, idxPath); n > 0 {
		t.Fatalf("%d mappings of the index file left after its last lineage was replaced", n)
	}
}
