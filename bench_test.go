// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus the design ablations listed in the README's
// "Where this code departs from the paper". Each benchmark wraps the
// corresponding internal/exp runner at the Tiny scale so the full suite
// runs in minutes; `cmd/usim-exp -scale small` (or `paper`) runs the
// same experiments at larger sizes.
package usimrank_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"usimrank"
	"usimrank/internal/exp"
	"usimrank/internal/gen"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

func benchCfg() exp.Config {
	return exp.Config{Scale: gen.Tiny, Seed: 1, Out: io.Discard}
}

// BenchmarkSRSPParallel sweeps the engine's Parallelism knob over the
// SR-SP matrix sweep (the amortised all-pairs hot path): one RMAT bench
// graph, fixed seed, 1/2/4/8 workers. The estimates are bit-identical
// across the sweep — only wall time may change — and on multi-core
// hardware the 4-worker leg is expected to run ≥2× faster than the
// 1-worker leg. Filter-pool construction (the paper's offline phase) is
// excluded from the timed region.
func BenchmarkSRSPParallel(b *testing.B) {
	g := gen.WithUniformProbs(gen.RMAT(10, 8192, 0.45, 0.22, 0.22, rng.New(1)), 0.2, 0.9, rng.New(2))
	verts := make([]int, 48)
	for i := range verts {
		verts[i] = (i * 17) % g.NumVertices()
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, err := usimrank.New(g, usimrank.Options{N: 2048, Seed: 1, Parallelism: workers})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.SRSP(0, 1); err != nil { // build filter pools offline
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.SRSPMatrix(verts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleSource compares the one-pass single-source kernels
// against the pairwise loop they replace, for the two sampling-heavy
// strategies. The kernel does the source's work (walk sampling for
// Sampling, counting-table propagation for SR-SP) once for the whole
// sweep instead of once per candidate, so it is expected to run ≥1.5×
// faster than the pairwise loop; the scores are bit-identical (pinned
// by TestSingleSourceMatchesPairwiseBitForBit). Filter-pool
// construction (the paper's offline phase) is excluded from the timed
// region.
func BenchmarkSingleSource(b *testing.B) {
	g := gen.WithUniformProbs(gen.RMAT(9, 4096, 0.45, 0.22, 0.22, rng.New(1)), 0.2, 0.9, rng.New(2))
	for _, alg := range []usimrank.Algorithm{usimrank.AlgSampling, usimrank.AlgSRSP} {
		e, err := usimrank.New(g, usimrank.Options{N: 1024, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Compute(alg, 0, 1); err != nil { // build filter pools offline
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%v/kernel", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.SingleSource(alg, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%v/pairwise", alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for v := 0; v < g.NumVertices(); v++ {
					if _, err := e.Compute(alg, 0, v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSamplingV2 is the v1-vs-v2 head-to-head for the raw-speed
// sampling kernel: the same RMAT bench graph, seed, and N as
// BenchmarkSingleSource, one worker, both kernels warmed before the
// timed region. The v2 legs run the structure-of-arrays lockstep walks
// over the precomputed arc-sampling plan; the v1 legs run the original
// per-walk map kernel, frozen as test code (v1MapPath, pinned to
// AlgSampling's scores by TestFrozenV1LegsMatchSampling). The bench
// gate enforces a ≥2× v2-over-v1 geomean and 0 allocs/op on every v2
// leg (the arena and scratch pools make the steady state
// allocation-free); the estimates themselves are pinned equal to the
// oracle by TestSampledAlgorithmsConvergeToOracle and bit-stable by
// TestSamplingV2Golden.
func BenchmarkSamplingV2(b *testing.B) {
	g := samplingBenchGraph()
	n := g.NumVertices()
	e, err := usimrank.New(g, usimrank.Options{N: 1024, Seed: 1, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Compute(usimrank.AlgSamplingV2, 0, 1); err != nil { // build the v2 plan + warm the pools offline
		b.Fatal(err)
	}
	cands := samplingBenchCandidates(n)
	out := make([]float64, len(cands))
	if err := e.SingleSourceAgainstInto(usimrank.AlgSamplingV2, 0, cands, out); err != nil { // size the scratch pools
		b.Fatal(err)
	}
	v1 := newV1MapPath(e)
	legs := []struct {
		name   string
		score  func(u, v int) error
		source func(u int) error
	}{
		{"v1",
			func(u, v int) error { v1.score(u, v); return nil },
			func(u int) error { v1.source(u, cands, out); return nil }},
		{"v2",
			func(u, v int) error { _, err := e.Compute(usimrank.AlgSamplingV2, u, v); return err },
			func(u int) error { return e.SingleSourceAgainstInto(usimrank.AlgSamplingV2, u, cands, out) }},
	}
	for _, leg := range legs {
		b.Run("score/"+leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := leg.score(i%n, (i*7+1)%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, leg := range legs {
		b.Run("source/"+leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := leg.source(i % n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptiveScore compares the adaptive (ε, δ) pair query
// against the fixed-N kernel it wraps, at a serving-realistic ε. The
// adaptive path stops as soon as its empirical-Bernstein radius drops
// under ε, so on typical (low-variance) pairs it samples a fraction of
// the fixed budget; walks/op reports the actual spend. Accuracy is
// pinned separately by TestAdaptiveConvergesToOracle.
func BenchmarkAdaptiveScore(b *testing.B) {
	g := gen.WithUniformProbs(gen.RMAT(9, 4096, 0.45, 0.22, 0.22, rng.New(1)), 0.2, 0.9, rng.New(2))
	n := g.NumVertices()
	e, err := usimrank.New(g, usimrank.Options{N: 4096, Seed: 1, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Compute(usimrank.AlgSamplingV2, 0, 1); err != nil { // build the v2 plan offline
		b.Fatal(err)
	}
	ao := usimrank.AdaptiveOptions{Eps: 0.03, Delta: 0.05}
	b.Run("adaptive", func(b *testing.B) {
		b.ReportAllocs()
		var walks int64
		for i := 0; i < b.N; i++ {
			res, err := e.AdaptiveCompute(usimrank.AlgSamplingV2, i%n, (i*7+1)%n, ao)
			if err != nil {
				b.Fatal(err)
			}
			walks += res.Walks
		}
		b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
	})
	b.Run("fixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Compute(usimrank.AlgSamplingV2, i%n, (i*7+1)%n); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(e.Options().N), "walks/op")
	})
}

// BenchmarkAdaptiveSource is the single-source analogue: one shared
// source-side walk grid, per-candidate chunk streams, candidates
// freezing individually as their radii converge. Compared against the
// fixed-N single-source kernel over the same candidate set.
func BenchmarkAdaptiveSource(b *testing.B) {
	g := gen.WithUniformProbs(gen.RMAT(9, 4096, 0.45, 0.22, 0.22, rng.New(1)), 0.2, 0.9, rng.New(2))
	n := g.NumVertices()
	e, err := usimrank.New(g, usimrank.Options{N: 4096, Seed: 1, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Compute(usimrank.AlgSamplingV2, 0, 1); err != nil { // build the v2 plan offline
		b.Fatal(err)
	}
	cands := make([]int, 64)
	for i := range cands {
		cands[i] = (i * 13) % n
	}
	ao := usimrank.AdaptiveOptions{Eps: 0.03, Delta: 0.05}
	ctx := context.Background()
	b.Run("adaptive", func(b *testing.B) {
		b.ReportAllocs()
		var walks int64
		for i := 0; i < b.N; i++ {
			res, err := e.AdaptiveSingleSourceAgainstCtx(ctx, usimrank.AlgSamplingV2, i%n, cands, ao)
			if err != nil {
				b.Fatal(err)
			}
			walks += res.Walks
		}
		b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
	})
	out := make([]float64, len(cands))
	b.Run("fixed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.SingleSourceAgainstInto(usimrank.AlgSamplingV2, i%n, cands, out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(e.Options().N), "walks/op")
	})
}

func BenchmarkTable1WalkPr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1WalkPr(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table2Datasets(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Bias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7Table3Bias(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8Convergence(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9Efficiency(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10Accuracy(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11NSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11NSweep(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12Scalability(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Proteins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig13Proteins(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15ERTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig15ERTime(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5ERQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table5ERQuality(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSharedFilters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationSharedFilters(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationChoicePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationChoicePolicy(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStateMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationStateMerge(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGirth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationGirth(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationLSweep(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDiskTransPr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationDiskTransPr(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexedSingleSource compares the precomputed reverse-walk
// index path against the sampling kernel it shortcuts, on the
// 10k-vertex serving bench graph at equal N. The sampling kernel walks
// both sides per query; the indexed path samples only the source side
// and dots it against the index rows, so it is expected to run ≥5×
// faster (enforced by the bench gate). Index construction — the
// offline phase usim-index pays once per graph generation — is
// excluded from the timed region; accuracy is pinned separately by
// TestIndexedConvergesToOracle and TestIndexedTracksSampling.
func BenchmarkIndexedSingleSource(b *testing.B) {
	g := gen.CoAuthorship(10_000, 2, rng.New(5))
	e, err := usimrank.New(g, usimrank.Options{N: 1000, Seed: 1, L: 1, RowCacheSize: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := usimrank.BuildIndex(e)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SingleSourceIndexed(idx, i%g.NumVertices()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SingleSource(usimrank.AlgSampling, i%g.NumVertices()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchUpdateGraph builds the 10k-vertex dynamic-update bench graph and
// a serving-shaped engine over it: two-phase split l = 1, warm SR-SP
// filter pools, and the row cache warmed for every vertex — the state a
// loaded usimd process is in when a mutation arrives.
func benchUpdateGraph(b *testing.B) (*usimrank.Graph, *usimrank.Engine, []usimrank.ArcUpdate) {
	b.Helper()
	g := gen.CoAuthorship(10_000, 2, rng.New(5))
	e, err := usimrank.New(g, usimrank.Options{N: 1000, Seed: 1, L: 1, RowCacheSize: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	e.WarmFilters()
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
	}
	if err := e.WarmRowsFor(usimrank.AlgTwoPhase, all); err != nil {
		b.Fatal(err)
	}
	for w := 0; w < g.NumVertices(); w++ {
		if len(g.Out(w)) > 0 {
			return g, e, []usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: w, V: int(g.Out(w)[0]), P: 0.5}}
		}
	}
	b.Fatal("bench graph has no arcs")
	return nil, nil, nil
}

// BenchmarkApplyUpdates measures the incremental path of the dynamic
// update plane: one single-arc reweight on the warm 10k-vertex engine,
// including CSR compaction, targeted row-cache invalidation, and the
// SR-SP filter patch, which invalidates the touched head and re-samples
// nothing (a later SR-SP query does). Compare against BenchmarkEngineRebuild,
// the cost the same mutation paid before this plane existed (a full
// reload): the incremental path is expected to be ≥10× faster, and the
// reported invalidated_frac must stay well under 0.20 (also pinned by
// TestUpdateInvalidationBounded10k).
func BenchmarkApplyUpdates(b *testing.B) {
	_, e, ups := benchUpdateGraph(b)
	b.ResetTimer()
	var lastEvicted, lastTotal int
	for i := 0; i < b.N; i++ {
		_, stats, err := e.ApplyUpdates(ups)
		if err != nil {
			b.Fatal(err)
		}
		lastEvicted = stats.RowsEvicted
		lastTotal = stats.RowsEvicted + stats.RowsRetained
	}
	if lastTotal > 0 {
		b.ReportMetric(float64(lastEvicted)/float64(lastTotal), "invalidated_frac")
	}
}

// BenchmarkEngineRebuild measures the pre-update-plane cost of the same
// single-arc mutation: rebuild the engine from the mutated graph and
// re-warm the filter pools (what POST /v1/admin/reload pays), leaving
// every row cold on top.
func BenchmarkEngineRebuild(b *testing.B) {
	g, e, ups := benchUpdateGraph(b)
	mut, err := g.Apply(ups)
	if err != nil {
		b.Fatal(err)
	}
	opt := e.Options()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := usimrank.New(mut, opt)
		if err != nil {
			b.Fatal(err)
		}
		fresh.WarmFilters()
	}
}

// benchIndexEngine builds the index-plane bench state: the 3k-vertex
// coauthorship graph of the index-patch load workload under the serving
// defaults at N = 1000.
func benchIndexEngine(b *testing.B) (*usimrank.Graph, *usimrank.Engine) {
	b.Helper()
	g := gen.CoAuthorship(3000, 2, rng.New(5))
	e, err := usimrank.New(g, usimrank.Options{N: 1000, Seed: 1, L: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g, e
}

// reportWalkSteps reports the occupancy kernel's work unit: ns per
// nominal walk-step, N walks of Steps steps for each of the vertices
// whose rows one iteration computes.
func reportWalkSteps(b *testing.B, e *usimrank.Engine, vertices int) {
	opt := e.Options()
	steps := float64(b.N) * float64(vertices) * float64(opt.N) * float64(opt.Steps)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/walk-step")
}

// BenchmarkIndexBuild measures the offline index pass (index.Build):
// every vertex's v-side occupancy rows on the engine's worker pool. Its
// per-vertex kernel is the one index patches and indexed residuals run.
func BenchmarkIndexBuild(b *testing.B) {
	g, e := benchIndexEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := usimrank.BuildIndex(e); err != nil {
			b.Fatal(err)
		}
	}
	reportWalkSteps(b, e, g.NumVertices())
}

// BenchmarkIndexPatch measures index.Patch after a single-arc reweight:
// the invalidation BFS plus the occupancy rows of every vertex it
// reaches, which is nearly all of an index-serving node's update
// latency. Like the index-patch load workload it reweights an arc whose
// patch recomputes about 30% of the vertices (the first such arc in
// vertex order). The base index and the successor engine are built
// outside the timed region; patched_frac is the share recomputed.
func BenchmarkIndexPatch(b *testing.B) {
	g, e := benchIndexEngine(b)
	x, err := usimrank.BuildIndex(e)
	if err != nil {
		b.Fatal(err)
	}
	var ups []usimrank.ArcUpdate
	for u := 0; u < g.NumVertices() && ups == nil; u++ {
		for _, v := range g.Out(u) {
			reached := 0
			for _, d := range ugraph.BoundedDistances([]int32{v}, e.Options().Steps-1, g) {
				if d >= 0 {
					reached++
				}
			}
			if share := float64(reached) / float64(g.NumVertices()); share >= 0.25 && share <= 0.35 {
				ups = []usimrank.ArcUpdate{{Op: usimrank.OpReweight, U: u, V: int(v), P: 0.5}}
				break
			}
		}
	}
	if ups == nil {
		b.Fatal("no arc with a 25-35% patch share")
	}
	succ, _, err := e.ApplyUpdates(ups)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	patched := 0
	for i := 0; i < b.N; i++ {
		if _, patched, err = usimrank.PatchIndex(x, succ, g, ups); err != nil {
			b.Fatal(err)
		}
	}
	reportWalkSteps(b, e, patched)
	b.ReportMetric(float64(patched)/float64(g.NumVertices()), "patched_frac")
}

// twoPhaseBench is the SR-TS source query a write-push subscription
// recomputes, on write-push's graph family (the BenchmarkApplyUpdates
// graph): the highest-degree vertex u against 32 fixed candidates at
// N = 1000 and one worker, with every exact row cached on e.
func twoPhaseBench(b *testing.B) (g *usimrank.Graph, e *usimrank.Engine, u int, cands []int) {
	b.Helper()
	g = gen.CoAuthorship(10_000, 2, rng.New(5))
	e, err := usimrank.New(g, usimrank.Options{N: 1000, Seed: 1, L: 1, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if g.OutDegree(v) > g.OutDegree(u) {
			u = v
		}
	}
	cands = make([]int, 32)
	for i := range cands {
		cands[i] = i * (g.NumVertices() / len(cands))
	}
	if err := e.WarmRowsFor(usimrank.AlgTwoPhase, append([]int{u}, cands...)); err != nil {
		b.Fatal(err)
	}
	return g, e, u, cands
}

// BenchmarkTwoPhaseSource measures SR-TS's single-source kernel cold
// (twoPhaseBench's query), so the time is the sampled tail with every
// walk drawn: each iteration queries a fresh Clone, whose walk memo is
// empty, made and row-warmed outside the timer. ns/walk-step counts N
// walks of Steps steps for the source and for each candidate.
func BenchmarkTwoPhaseSource(b *testing.B) {
	_, e, u, cands := twoPhaseBench(b)
	out := make([]float64, len(cands))
	if err := e.SingleSourceAgainstInto(usimrank.AlgTwoPhase, u, cands, out); err != nil { // size the scratch pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := e.Clone()
		if err := c.WarmRowsFor(usimrank.AlgTwoPhase, append([]int{u}, cands...)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.SingleSourceAgainstInto(usimrank.AlgTwoPhase, u, cands, out); err != nil {
			b.Fatal(err)
		}
	}
	reportWalkSteps(b, e, 1+len(cands))
}

// BenchmarkTwoPhasePush measures a write-push subscription's push with
// the walk memo: twoPhaseBench's query runs twice on the engine, which
// keeps its sides' walk grids, and each iteration derives the engine's
// successor for write-push's batch (benchWriteBatch) and re-warms its
// rows outside the timer, then times the query on the successor, which
// re-draws only the chunks the batch reached. walks/op (drawn) and
// reused/op (taken from kept chunks) are exact counts; they sum to the
// 33,000 walks the query needs.
func BenchmarkTwoPhasePush(b *testing.B) {
	g, e, u, cands := twoPhaseBench(b)
	out := make([]float64, len(cands))
	for i := 0; i < 2; i++ {
		if err := e.SingleSourceAgainstInto(usimrank.AlgTwoPhase, u, cands, out); err != nil {
			b.Fatal(err)
		}
	}
	ups := benchWriteBatch(g)
	var drawn, reused uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		succ, _, err := e.ApplyUpdates(ups)
		if err != nil {
			b.Fatal(err)
		}
		if err := succ.WarmRowsFor(usimrank.AlgTwoPhase, append([]int{u}, cands...)); err != nil {
			b.Fatal(err)
		}
		before := succ.KernelStats()
		b.StartTimer()
		if err := succ.SingleSourceAgainstInto(usimrank.AlgTwoPhase, u, cands, out); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		after := succ.KernelStats()
		drawn += after.Walks - before.Walks
		reused += after.WalksReused - before.WalksReused
		b.StartTimer()
	}
	b.ReportMetric(float64(drawn)/float64(b.N), "walks/op")
	b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
}

// benchWriteBatch returns write-push's update shape on g: one fixed
// batch of 16 reweights of distinct arcs to fresh probabilities.
func benchWriteBatch(g *usimrank.Graph) []usimrank.ArcUpdate {
	r := rng.New(7)
	picked := map[int32]bool{}
	var ups []usimrank.ArcUpdate
	for len(ups) < 16 {
		id := int32(r.Intn(g.NumArcs()))
		if picked[id] {
			continue
		}
		picked[id] = true
		u, v, _ := g.ArcEndpoints(id)
		ups = append(ups, usimrank.ArcUpdate{Op: usimrank.OpReweight, U: int(u), V: int(v), P: 0.05 + 0.95*r.Float64()})
	}
	return ups
}

// BenchmarkUpdateBatchWarm measures ApplyUpdates the way a write-push
// node pays it: write-push's graph family under the serving defaults,
// SR-SP filters warmed as -warm does, and one fixed batch of 16
// distinct-arc reweights applied to the same warm engine each
// iteration. The filter patch invalidates the touched heads and
// re-samples nothing, so the time is compaction, the two BFS runs, the
// row carry-over and the page clones of the filter patch; each is
// reported in µs/op (compact_us, evict_bfs_us, touch_bfs_us,
// row_carry_us, filters_us), the write path's per-phase unit.
// Trajectory only, outside the bench gate.
func BenchmarkUpdateBatchWarm(b *testing.B) {
	g := gen.CoAuthorship(10_000, 2, rng.New(5))
	e, err := usimrank.New(g, usimrank.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e.WarmFilters()
	ups := benchWriteBatch(g)
	units := []string{"compact_us", "evict_bfs_us", "touch_bfs_us", "row_carry_us", "filters_us"}
	var sum [5]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := e.ApplyUpdates(ups)
		if err != nil {
			b.Fatal(err)
		}
		ph := st.Phases
		for j, d := range []time.Duration{ph.Compact, ph.EvictBFS, ph.TouchBFS, ph.RowCarry, ph.Filters} {
			sum[j] += d
		}
	}
	for j, unit := range units {
		b.ReportMetric(float64(sum[j].Nanoseconds())/1e3/float64(b.N), unit)
	}
}

// BenchmarkWarmFilters times the full two-pool SR-SP filter build (what
// -warm pays at start-up) on write-push's graph family at the serving
// default N = 1000 and one worker. ns/process-arc divides by N sampling
// processes times the arc count, per pool. Trajectory only, outside the
// bench gate.
func BenchmarkWarmFilters(b *testing.B) {
	g := gen.CoAuthorship(10_000, 2, rng.New(5))
	var e *usimrank.Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var err error
		if e, err = usimrank.New(g, usimrank.Options{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.WarmFilters()
	}
	processArcs := float64(b.N) * 2 * float64(e.Options().N) * float64(g.NumArcs())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/processArcs, "ns/process-arc")
}
