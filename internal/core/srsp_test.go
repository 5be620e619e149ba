package core

import (
	"sync"
	"testing"

	"usimrank/internal/gen"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// TestSRSPScoreAllocs pins the pooled SR-SP pair path: with the rows
// cached and the filters built, a score allocates nothing at
// Parallelism 1 (the zero-allocation gate for srsp), and at
// Parallelism 4 a constant that does not grow with N (the two
// propagations' fan-out).
func TestSRSPScoreAllocs(t *testing.T) {
	g := gen.WithUniformProbs(gen.RMAT(9, 4096, 0.45, 0.22, 0.22, rng.New(1)), 0.2, 0.9, rng.New(2))
	fanOut := -1.0
	for _, N := range []int{256, 1024, 4096} {
		for _, par := range []int{1, 4} {
			e := newEngine(t, g, Options{N: N, Seed: 1, Parallelism: par})
			if _, err := e.SRSP(0, 7); err != nil { // build the pools, cache the rows, size the scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := e.Compute(AlgSRSP, 0, 7); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("N=%d Parallelism=%d: a warmed srsp score makes %v allocations", N, par, allocs)
			switch {
			case par == 1 && allocs != 0:
				t.Errorf("N=%d: warmed srsp score at Parallelism 1 makes %v allocations, want 0", N, allocs)
			case par > 1 && fanOut < 0:
				fanOut = allocs
			case par > 1 && allocs != fanOut:
				t.Errorf("N=%d: warmed srsp score at Parallelism %d makes %v allocations, %v at N=256", N, par, allocs, fanOut)
			}
		}
	}
}

// patchedSRSPEngine returns a warm engine over a dense random graph and
// a successor derived by updates whose heads every walk reaches, with
// no SR-SP query in between: the successor's pools hold invalidated
// vertices that the first propagations re-sample.
func patchedSRSPEngine(t *testing.T, opt Options) (*Engine, []ugraph.ArcUpdate) {
	t.Helper()
	r := rng.New(77)
	g := randUGraph(r, 30, 0.35)
	e := newEngine(t, g, opt)
	e.WarmFilters()
	ups := randomBatch(r, g, 6)
	return e, ups
}

// TestSRSPConcurrentSourcesOnPatchedEngine races SR-SP source queries
// on one freshly patched engine: every query's walks reach the same
// invalidated heads, so the goroutines race to re-sample them. Every
// answer must equal a serial run's on an identically derived engine.
func TestSRSPConcurrentSourcesOnPatchedEngine(t *testing.T) {
	for _, par := range []int{1, 4} {
		opt := Options{Steps: 5, N: 256, L: 1, Seed: 3, Parallelism: par}
		base, ups := patchedSRSPEngine(t, opt)
		serial, _, err := base.ApplyUpdates(ups)
		if err != nil {
			t.Fatal(err)
		}
		n := serial.Graph().NumVertices()
		want := make([][]float64, n)
		for u := range want {
			if want[u], err = serial.SingleSource(AlgSRSP, u); err != nil {
				t.Fatal(err)
			}
		}
		racing, _, err := base.ApplyUpdates(ups)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for gr := 0; gr < 6; gr++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					u := (i + 5*gr) % n
					got, err := racing.SingleSource(AlgSRSP, u)
					if err != nil {
						t.Error(err)
						return
					}
					for v := range got {
						if got[v] != want[u][v] {
							t.Errorf("Parallelism %d: concurrent s(%d,%d) = %v, serial %v", par, u, v, got[v], want[u][v])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestUpdateInvalidatesWithoutResampling pins the lazy patch through the
// engine: ApplyUpdates re-samples no filter, WarmFilters re-samples each
// invalidated vertex — a net-changed head — exactly once per pool even
// when several batches touch it, a later query re-samples nothing, and
// the kernel counters carry across the generations.
func TestUpdateInvalidatesWithoutResampling(t *testing.T) {
	opt := Options{Steps: 4, N: 128, L: 1, Seed: 11, Parallelism: 2}
	e, ups := patchedSRSPEngine(t, opt)
	if _, err := e.Compute(AlgSampling, 0, 1); err != nil {
		t.Fatal(err)
	}
	walks := e.KernelStats().Walks
	r := rng.New(5)
	stale := map[int32]bool{}
	for batch := 0; batch < 3; batch++ {
		d := ugraph.NewDelta(e.Graph())
		if err := d.StageAll(ups); err != nil {
			t.Fatal(err)
		}
		for _, h := range d.NetChangedHeads() {
			stale[h] = true // the reversed graph's changed row is the head's
		}
		next, stats, err := e.ApplyUpdates(ups)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.FiltersPatched || stats.TouchedHeads != len(d.NetChangedHeads()) || stats.FilterVerticesRebuilt != 2*stats.TouchedHeads {
			t.Fatalf("batch %d: stats %+v, want 2 pools × %d heads invalidated", batch, stats, len(d.NetChangedHeads()))
		}
		if ph := stats.Phases; ph.Compact <= 0 || ph.TouchBFS <= 0 || ph.Filters <= 0 {
			t.Fatalf("batch %d: untimed phase in %+v", batch, ph)
		}
		e = next
		ups = randomBatch(r, e.Graph(), 4)
	}
	ks := e.KernelStats()
	if ks.FilterVerticesResampled != 0 {
		t.Fatalf("three updates re-sampled %d filter vertices, want 0", ks.FilterVerticesResampled)
	}
	if ks.Walks < walks {
		t.Fatalf("walk counter fell from %d to %d across the updates", walks, ks.Walks)
	}
	want := 0
	for w := range stale {
		if e.rev.OutDegree(int(w)) > 0 {
			want += 2
		}
	}
	e.WarmFilters()
	if got := e.KernelStats().FilterVerticesResampled; got != uint64(want) {
		t.Fatalf("WarmFilters re-sampled %d filter vertices, want %d", got, want)
	}
	if _, err := e.SRSP(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := e.KernelStats().FilterVerticesResampled; got != uint64(want) {
		t.Fatalf("a query after WarmFilters re-sampled again (%d, want %d)", got, want)
	}
}
