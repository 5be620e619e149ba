package index

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"weak"

	"usimrank/internal/core"
	"usimrank/internal/gen"
	"usimrank/internal/matrix"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

func testGraph() *ugraph.Graph {
	return gen.WithUniformProbs(gen.RMAT(7, 512, 0.45, 0.22, 0.22, rng.New(3)), 0.2, 0.9, rng.New(4))
}

func newEngine(t *testing.T, g *ugraph.Graph, opt core.Options) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sameVec(a, b matrix.Vec) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.meta != want.meta {
		t.Fatalf("meta %+v, want %+v", got.meta, want.meta)
	}
	for r := range want.rows {
		if !sameVec(got.rows[r], want.rows[r]) {
			v, k := r/(want.meta.Depth+1), r%(want.meta.Depth+1)
			t.Fatalf("occ_%d[%d] = %+v, want %+v", v, k, got.rows[r], want.rows[r])
		}
	}
}

// TestBuildWriteLoadRoundTrip: a built index survives the USIX round
// trip bit for bit, and the loaded (mmap-backed) rows serve the indexed
// kernel identically to the in-memory build.
func TestBuildWriteLoadRoundTrip(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, core.Options{N: 400, Seed: 7})
	built, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	if built.Generation() != 1 || built.NumVertices() != g.NumVertices() ||
		built.Depth() != e.Options().Steps || built.Samples() != 400 || built.Seed() != 7 {
		t.Fatalf("built meta %+v", built.meta)
	}
	path := filepath.Join(t.TempDir(), "g.usix")
	if err := built.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	sameIndex(t, loaded, built)

	fromBuilt, err := e.SingleSourceIndexed(built, 9)
	if err != nil {
		t.Fatal(err)
	}
	fromLoaded, err := e.SingleSourceIndexed(loaded, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := range fromBuilt {
		if fromBuilt[v] != fromLoaded[v] {
			t.Fatalf("s(9,%d): %v from built, %v from loaded", v, fromBuilt[v], fromLoaded[v])
		}
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDeterministicAcrossParallelism: the offline pass is
// scheduling-independent like everything else in the engine.
func TestBuildDeterministicAcrossParallelism(t *testing.T) {
	g := testGraph()
	build := func(par int) *Index {
		e := newEngine(t, g, core.Options{N: 300, Seed: 13, Parallelism: par})
		x, err := Build(e)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	base := build(1)
	sameIndex(t, build(6), base)
}

// TestPatchMatchesFreshRebuild is the patch plane's central contract:
// after ApplyUpdates, patching the old index on the successor engine is
// bit-identical to rebuilding from scratch — while recomputing only the
// BFS-touched vertices.
func TestPatchMatchesFreshRebuild(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, core.Options{N: 300, Seed: 5})
	x, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	du, dv, _ := g.ArcEndpoints(0)
	ru, rv, _ := g.ArcEndpoints(1)
	ups := []ugraph.ArcUpdate{
		{Op: ugraph.OpInsert, U: 3, V: 90, P: 0.7},
		{Op: ugraph.OpDelete, U: int(du), V: int(dv)},
		{Op: ugraph.OpReweight, U: int(ru), V: int(rv), P: 0.33},
	}
	succ, _, err := e.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	patched, n, err := Patch(x, succ, ups)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || n >= g.NumVertices() {
		t.Fatalf("patched %d of %d vertices", n, g.NumVertices())
	}
	fresh, err := Build(succ)
	if err != nil {
		t.Fatal(err)
	}
	sameIndex(t, patched, fresh)
	if err := succ.CheckIndex(patched); err != nil {
		t.Fatalf("successor rejects patched index: %v", err)
	}
	if err := e.CheckIndex(patched); err == nil {
		t.Fatal("predecessor accepts patched index")
	}
}

// TestPatchEmptyBatch: an empty batch patches zero vertices but still
// advances the generation with the engine.
func TestPatchEmptyBatch(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, core.Options{N: 200, Seed: 2})
	x, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	succ, _, err := e.ApplyUpdates(nil)
	if err != nil {
		t.Fatal(err)
	}
	patched, n, err := Patch(x, succ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("patched %d vertices on an empty batch", n)
	}
	if err := succ.CheckIndex(patched); err != nil {
		t.Fatal(err)
	}
}

// TestPatchRejectsWrongLineage: patching requires exactly the
// generation successor and matching walk-stream parameters.
func TestPatchRejectsWrongLineage(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, core.Options{N: 200, Seed: 2})
	x, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Patch(x, e, nil); err == nil {
		t.Fatal("patch onto the same generation accepted")
	}
	succ, _, err := e.ApplyUpdates(nil)
	if err != nil {
		t.Fatal(err)
	}
	succ2, _, err := succ.ApplyUpdates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Patch(x, succ2, nil); err == nil {
		t.Fatal("patch across two generations accepted")
	}
	badMeta := x.meta
	badMeta.Seed = 99
	if _, _, err := Patch(fromParts(badMeta, x.rows), succ, nil); err == nil {
		t.Fatal("patch with mismatched seed accepted")
	}
}

// TestLoadRejectsCorruptFile: the loader surfaces diskstore's
// validation instead of serving garbage.
func TestLoadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.usix")); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.usix")
	if err := os.WriteFile(bad, []byte("USIXgarbage that is long enough to clear the header size check...."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("corrupt file loaded")
	}
}

// TestPatchDropsPredecessor: a patched index must not keep the index it
// was patched from reachable — a serving node patches once per update,
// so any back link would grow the heap by one full rows table per
// update. It shares only the lineage's mapping, so a patch of a loaded
// index still serves bit-identical rows after the predecessor is
// collected, and Close releases the shared mapping once.
func TestPatchDropsPredecessor(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, core.Options{N: 50, Seed: 5})
	built, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.usix")
	if err := built.Write(path); err != nil {
		t.Fatal(err)
	}
	ups := []ugraph.ArcUpdate{{Op: ugraph.OpReweight, U: 3, V: int(g.Out(3)[0]), P: 0.41}}
	succ, _, err := e.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(succ)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"built", "loaded"} {
		// patchOnce returns only a weak handle on the predecessor, so
		// nothing in this frame keeps it alive.
		patchOnce := func() (*Index, weak.Pointer[Index]) {
			x := fromParts(built.meta, append([]matrix.Vec(nil), built.rows...))
			if from == "loaded" {
				var err error
				if x, err = Load(path); err != nil {
					t.Fatal(err)
				}
			}
			patched, _, err := Patch(x, succ, ups)
			if err != nil {
				t.Fatal(err)
			}
			return patched, weak.Make(x)
		}
		patched, pred := patchOnce()
		runtime.GC()
		runtime.GC()
		if pred.Value() != nil {
			t.Fatalf("%s: patched index keeps its predecessor reachable", from)
		}
		sameIndex(t, patched, fresh)
		if err := patched.Close(); err != nil {
			t.Fatalf("%s: close: %v", from, err)
		}
		if err := patched.Close(); err != nil {
			t.Fatalf("%s: second close: %v", from, err)
		}
	}
}
