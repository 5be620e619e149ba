package core

import (
	"slices"
	"testing"

	"usimrank/internal/gen"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// randUGraph draws a digraph with independent arc probability p.
func randUGraph(r *rng.RNG, n int, p float64) *ugraph.Graph {
	b := ugraph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if r.Bool(p) {
				b.AddArc(u, v, 0.05+0.95*r.Float64())
			}
		}
	}
	return b.MustBuild()
}

// randomBatch stages a mixed batch of valid updates against g.
func randomBatch(r *rng.RNG, g *ugraph.Graph, count int) []ugraph.ArcUpdate {
	d := ugraph.NewDelta(g)
	var ups []ugraph.ArcUpdate
	for len(ups) < count {
		u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
		var up ugraph.ArcUpdate
		if d.Prob(u, v) > 0 {
			if r.Bool(0.5) {
				up = ugraph.ArcUpdate{Op: ugraph.OpDelete, U: u, V: v}
			} else {
				up = ugraph.ArcUpdate{Op: ugraph.OpReweight, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
			}
		} else {
			up = ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
		}
		if err := d.Stage(up); err != nil {
			continue
		}
		ups = append(ups, up)
	}
	return ups
}

// TestApplyUpdatesBitIdenticalToRebuild is the core invariant of the
// dynamic update plane: a derived engine answers every query with the
// same bits as a from-scratch engine over the mutated graph. (The
// oracle package extends this across all five query shapes; this is
// the fast in-package version covering the cache-retention and
// filter-patch paths directly.)
func TestApplyUpdatesBitIdenticalToRebuild(t *testing.T) {
	r := rng.New(314)
	for trial := 0; trial < 12; trial++ {
		g := randUGraph(r, 12+r.Intn(12), 0.18)
		opt := Options{Steps: 4, N: 120, L: 1, Seed: 9, Parallelism: 2, RowCacheSize: 64}
		e, err := NewEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Warm every kind of derived state on the predecessor: exact
		// rows at baseline depth, two-phase depth, and the SR-SP filter
		// pools — so carry-over (not just recompute) is what's tested.
		for v := 0; v < g.NumVertices(); v += 2 {
			if _, err := e.Baseline(v, (v+3)%g.NumVertices()); err != nil {
				t.Fatal(err)
			}
			if _, err := e.SRSP(v, (v+1)%g.NumVertices()); err != nil {
				t.Fatal(err)
			}
		}

		ups := randomBatch(r, g, 1+r.Intn(4))
		derived, stats, err := e.ApplyUpdates(ups)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.Generation != 2 || derived.Generation() != 2 {
			t.Fatalf("generation %d / %d, want 2", stats.Generation, derived.Generation())
		}
		if !stats.FiltersPatched {
			t.Fatal("warm filters were not patched")
		}
		rebuilt, err := NewEngine(derived.Graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			for q := 0; q < 6; q++ {
				u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
				got, err := derived.Compute(alg, u, v)
				if err != nil {
					t.Fatal(err)
				}
				want, err := rebuilt.Compute(alg, u, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d %s s(%d,%d): derived %v, rebuilt %v (stats %+v)",
						trial, alg, u, v, got, want, stats)
				}
			}
			gotSS, err := derived.SingleSource(alg, trial%g.NumVertices())
			if err != nil {
				t.Fatal(err)
			}
			wantSS, err := rebuilt.SingleSource(alg, trial%g.NumVertices())
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantSS {
				if gotSS[i] != wantSS[i] {
					t.Fatalf("trial %d %s single-source[%d]: %v vs %v", trial, alg, i, gotSS[i], wantSS[i])
				}
			}
		}
		gotM, err := derived.SRSPMatrix([]int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := rebuilt.SRSPMatrix([]int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantM {
			for j := range wantM[i] {
				if gotM[i][j] != wantM[i][j] {
					t.Fatalf("trial %d SRSPMatrix[%d][%d]: %v vs %v", trial, i, j, gotM[i][j], wantM[i][j])
				}
			}
		}
	}
}

// TestApplyUpdatesTargetedInvalidation pins the eviction set on a graph
// where reachability is obvious: on the path 0 → 1 → … → 9, mutating
// arc (8, 9) can only change the reversed-walk rows of vertices
// reachable from head 9 — and 9 has no out-arcs, so exactly the entry
// for source 9 is evicted, no matter how many rows are warm.
func TestApplyUpdatesTargetedInvalidation(t *testing.T) {
	const n = 10
	b := ugraph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddArc(v, v+1, 0.9)
	}
	g := b.MustBuild()
	e, err := NewEngine(g, Options{Steps: 3, N: 50, L: 3, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if err := e.WarmRowsFor(AlgBaseline, all); err != nil {
		t.Fatal(err)
	}
	derived, stats, err := e.ApplyUpdates([]ugraph.ArcUpdate{{Op: ugraph.OpReweight, U: 8, V: 9, P: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsEvicted != 1 || stats.RowsRetained != n-1 {
		t.Fatalf("evicted %d retained %d, want 1 / %d (stats %+v)", stats.RowsEvicted, stats.RowsRetained, n-1, stats)
	}
	// Mutating (0, 1) instead puts heads at 1; every vertex 1..9 is
	// within 2 forward hops? No — only 1, 2, 3 are within Steps−1 = 2
	// hops of head 1, so exactly those three warm entries die.
	_, stats2, err := e.ApplyUpdates([]ugraph.ArcUpdate{{Op: ugraph.OpReweight, U: 0, V: 1, P: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.RowsEvicted != 3 {
		t.Fatalf("head-1 mutation evicted %d rows, want 3 (stats %+v)", stats2.RowsEvicted, stats2)
	}
	// And the derived engine still answers exactly like a rebuild.
	rebuilt, err := NewEngine(derived.Graph(), e.Options())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		got, err := derived.Baseline(u, (u+1)%n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rebuilt.Baseline(u, (u+1)%n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("baseline s(%d,%d): derived %v, rebuilt %v", u, (u+1)%n, got, want)
		}
	}
}

func TestApplyUpdatesValidationAndChaining(t *testing.T) {
	g := ugraph.PaperFig1()
	e, err := NewEngine(g, Options{Seed: 1, N: 40, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid batch: error, predecessor untouched.
	if _, _, err := e.ApplyUpdates([]ugraph.ArcUpdate{{Op: ugraph.OpDelete, U: 0, V: 0}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if e.Generation() != 1 {
		t.Fatalf("failed update changed generation to %d", e.Generation())
	}
	// Empty batch: legal, everything retained.
	if _, err := e.Baseline(0, 1); err != nil {
		t.Fatal(err)
	}
	d1, stats, err := e.ApplyUpdates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsEvicted != 0 || stats.RowsRetained == 0 {
		t.Fatalf("empty batch: %+v", stats)
	}
	// Chained updates keep incrementing the generation.
	d2, _, err := d1.ApplyUpdates([]ugraph.ArcUpdate{{Op: ugraph.OpInsert, U: 0, V: 0, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	d3, _, err := d2.ApplyUpdates([]ugraph.ArcUpdate{{Op: ugraph.OpDelete, U: 0, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if d3.Generation() != 4 {
		t.Fatalf("generation %d after three derivations, want 4", d3.Generation())
	}
	if d3.Graph().NumArcs() != g.NumArcs() {
		t.Fatalf("insert+delete changed arc count: %d vs %d", d3.Graph().NumArcs(), g.NumArcs())
	}
}

// TestUpdateInvalidationBounded10k is the acceptance bound of the
// update plane: on the 10k-vertex bench graph with a serving-shaped
// warm cache (two-phase depth l = 1), a single-arc update invalidates
// well under 20% of cached rows.
func TestUpdateInvalidationBounded10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-vertex graph build in -short mode")
	}
	g := gen.CoAuthorship(10_000, 2, rng.New(5))
	e, err := NewEngine(g, Options{Seed: 1, N: 100, L: 1, RowCacheSize: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
	}
	if err := e.WarmRowsFor(AlgTwoPhase, all); err != nil {
		t.Fatal(err)
	}
	u := -1
	var v int
	for w := 0; w < g.NumVertices(); w++ {
		if len(g.Out(w)) > 0 {
			u, v = w, int(g.Out(w)[0])
			break
		}
	}
	if u < 0 {
		t.Fatal("bench graph has no arcs")
	}
	_, stats, err := e.ApplyUpdates([]ugraph.ArcUpdate{{Op: ugraph.OpReweight, U: u, V: v, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	total := stats.RowsEvicted + stats.RowsRetained
	if total < 9000 {
		t.Fatalf("cache was not warm: only %d entries", total)
	}
	if frac := float64(stats.RowsEvicted) / float64(total); frac >= 0.20 {
		t.Fatalf("single-arc update invalidated %.1f%% of cached rows (stats %+v)", 100*frac, stats)
	}
}

// TestMeetingSpeedupWrapper pins the exported MeetingSpeedup wrapper to
// the estimates the SRSP path consumes.
func TestMeetingSpeedupWrapper(t *testing.T) {
	g := ugraph.PaperFig1()
	e, err := NewEngine(g, Options{Seed: 1, N: 64, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.MeetingSpeedup(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != e.Options().Steps+1 {
		t.Fatalf("got %d levels, want %d", len(m), e.Options().Steps+1)
	}
	if m[0] != 0 {
		t.Fatalf("m(0)(0,1) = %v for distinct sources, want 0", m[0])
	}
	if _, err := e.MeetingSpeedup(-1, 0); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// TestUpdateSetsMatchTwoGraphDistances pins the eviction and wake-up
// sets of ApplyUpdates, which searches the new graph alone, against the
// ground truth of a BoundedDistances over both the old and the new
// graph, for a batch with a net delete, one without and one that nets
// out. Rows are cached at three depths, so the eviction horizon differs
// per row.
func TestUpdateSetsMatchTwoGraphDistances(t *testing.T) {
	r := rng.New(2718)
	g := randUGraph(r, 60, 0.04)
	opt := Options{Steps: 5, N: 64, Seed: 3, Parallelism: 1, RowCacheSize: 128}
	e, err := NewEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, K := range []int{1, 3, 5} {
		var vs []int
		for v := i; v < g.NumVertices(); v += 3 {
			vs = append(vs, v)
		}
		if err := e.WarmRows(vs, K); err != nil {
			t.Fatal(err)
		}
	}
	var present, absent [][2]int
	for u := 0; u < g.NumVertices(); u++ {
		for v := 0; v < g.NumVertices(); v++ {
			if g.Prob(u, v) > 0 {
				present = append(present, [2]int{u, v})
			} else {
				absent = append(absent, [2]int{u, v})
			}
		}
	}
	a, b, c := present[3], present[len(present)/2], absent[len(absent)/3]
	pb := g.Prob(b[0], b[1])
	batches := []struct {
		name    string
		removes bool
		ups     []ugraph.ArcUpdate
	}{
		{"net delete", true, []ugraph.ArcUpdate{
			{Op: ugraph.OpDelete, U: a[0], V: a[1]},
			{Op: ugraph.OpReweight, U: b[0], V: b[1], P: pb / 2},
			{Op: ugraph.OpInsert, U: c[0], V: c[1], P: 0.5},
		}},
		{"no delete", false, []ugraph.ArcUpdate{
			{Op: ugraph.OpInsert, U: c[0], V: c[1], P: 0.5},
			{Op: ugraph.OpReweight, U: b[0], V: b[1], P: pb / 2},
			{Op: ugraph.OpDelete, U: a[0], V: a[1]},
			{Op: ugraph.OpInsert, U: a[0], V: a[1], P: 0.25}, // re-inserted: a reweight on net
		}},
		{"nets out", false, []ugraph.ArcUpdate{
			{Op: ugraph.OpInsert, U: c[0], V: c[1], P: 0.5},
			{Op: ugraph.OpDelete, U: c[0], V: c[1]},
			{Op: ugraph.OpReweight, U: b[0], V: b[1], P: pb / 2},
			{Op: ugraph.OpReweight, U: b[0], V: b[1], P: pb},
		}},
	}
	evictedAny := false
	for _, bt := range batches {
		d := ugraph.NewDelta(g)
		if err := d.StageAll(bt.ups); err != nil {
			t.Fatalf("%s: %v", bt.name, err)
		}
		newG := d.Compact()
		removes := false
		for u := 0; u < g.NumVertices(); u++ {
			for _, v := range g.Out(u) {
				removes = removes || newG.Prob(u, int(v)) == 0
			}
		}
		if removes != bt.removes {
			t.Fatalf("%s: the batch deletes a base arc: %v, want %v", bt.name, removes, bt.removes)
		}
		keys, vals := e.rows.Snapshot()
		maxDepth := 0
		for _, rows := range vals {
			maxDepth = max(maxDepth, len(rows)-2)
		}
		dist := ugraph.BoundedDistances(d.TouchedHeads(), maxDepth, g, newG)
		var wantKept []int
		wantEvicted := 0
		for i, src := range keys {
			if dist[src] >= 0 && int(dist[src]) <= len(vals[i])-2 {
				wantEvicted++
			} else {
				wantKept = append(wantKept, src)
			}
		}
		var wantTouched []int32
		if net := d.NetChangedHeads(); len(net) > 0 {
			for v, dv := range ugraph.BoundedDistances(net, opt.Steps-1, g, newG) {
				if dv >= 0 {
					wantTouched = append(wantTouched, int32(v))
				}
			}
		}

		succ, st, err := e.ApplyUpdates(bt.ups)
		if err != nil {
			t.Fatalf("%s: %v", bt.name, err)
		}
		if st.RowsEvicted != wantEvicted || st.RowsRetained != len(wantKept) {
			t.Errorf("%s: evicted %d retained %d, two-graph distances give %d / %d",
				bt.name, st.RowsEvicted, st.RowsRetained, wantEvicted, len(wantKept))
		}
		if gotKept, _ := succ.rows.Snapshot(); !slices.Equal(gotKept, wantKept) {
			t.Errorf("%s: successor caches %v, want %v in that recency order", bt.name, gotKept, wantKept)
		}
		if !slices.Equal(st.TouchedSources, wantTouched) {
			t.Errorf("%s: TouchedSources %v, two-graph distances give %v", bt.name, st.TouchedSources, wantTouched)
		}
		if bt.name == "nets out" && len(st.TouchedSources) != 0 {
			t.Errorf("a batch that nets out touched %d sources", len(st.TouchedSources))
		}
		evictedAny = evictedAny || wantEvicted > 0
	}
	if !evictedAny {
		t.Fatal("no batch evicted a row; the test graph is too sparse to pin anything")
	}
}

// TestContinueCountersAcrossEngines: an engine built from scratch that
// continues another's counters reads the same lifetime totals — walks,
// arc instantiations, row-cache hits, misses and evictions, filter
// re-samples — and keeps adding to them.
func TestContinueCountersAcrossEngines(t *testing.T) {
	g := randUGraph(rng.New(99), 16, 0.2)
	opt := Options{Steps: 4, N: 96, Seed: 5, Parallelism: 1, RowCacheSize: 2}
	prev, err := NewEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgTwoPhase, AlgSamplingV2, AlgSRSP, AlgTwoPhase} {
		for v := 1; v < 5; v++ {
			if _, err := prev.Compute(alg, 0, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	ups := randomBatch(rng.New(3), g, 3)
	succ, _, err := prev.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	succ.WarmFilters() // re-samples the invalidated heads
	before, b := succ.KernelStats(), [3]uint64{}
	b[0], b[1], b[2] = succ.RowCacheCounters()
	if before.Walks == 0 || before.ArcsInstantiated == 0 || before.FilterVerticesResampled == 0 || b[0] == 0 || b[1] == 0 || b[2] == 0 {
		t.Fatalf("counters not live before the swap: %+v, row cache %v", before, b)
	}
	next, err := NewEngine(succ.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	next.ContinueCounters(succ)
	after, a := next.KernelStats(), [3]uint64{}
	a[0], a[1], a[2] = next.RowCacheCounters()
	if after.Walks != before.Walks || after.ArcsInstantiated != before.ArcsInstantiated ||
		after.FilterVerticesResampled != before.FilterVerticesResampled || a != b {
		t.Fatalf("continued engine reads %+v, row cache %v; want %+v, %v", after, a, before, b)
	}
	if _, err := next.Compute(AlgTwoPhase, 2, 3); err != nil {
		t.Fatal(err)
	}
	if ks := next.KernelStats(); ks.Walks <= after.Walks || ks.FilterVerticesResampled != after.FilterVerticesResampled {
		t.Fatalf("after a query: %+v, want more walks than %d and %d re-samples", ks, after.Walks, after.FilterVerticesResampled)
	}
}
