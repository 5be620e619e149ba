package exp

import (
	"fmt"
	"time"

	"usimrank/internal/core"
	"usimrank/internal/gen"
	"usimrank/internal/mc"
	"usimrank/internal/rng"
	"usimrank/internal/speedup"
	"usimrank/internal/transpr"
	"usimrank/internal/ugraph"
	"usimrank/internal/walkpr"
)

// AblationResult is a generic named-measurement container for the
// ablation studies listed in the README's "Where this code departs
// from the paper".
type AblationResult struct {
	Name   string
	Values map[string]float64
}

// AblationSharedFilters quantifies the bias the paper's shared
// filter-vector pool introduces versus independent pools, on a loopy
// graph where walk coupling matters. Values are mean absolute errors of
// m̂(k) against the exact meeting probabilities, averaged over k and a
// set of vertex pairs.
func AblationSharedFilters(cfg Config) (*AblationResult, error) {
	cfg = cfg.norm()
	g := ugraph.PaperFig1().Reverse() // loopy, small: exact values available
	const N, n = 20000, 4
	r := rng.New(cfg.Seed)

	shared := speedup.BuildFilters(g, N, r.Split())
	indepU := speedup.BuildFilters(g, N, r.Split())
	indepV := speedup.BuildFilters(g, N, r.Split())

	pairs := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}}
	var errShared, errIndep float64
	count := 0
	for _, pair := range pairs {
		u, v := pair[0], pair[1]
		ru, err := walkpr.TransitionRows(g, u, n, walkpr.Options{})
		if err != nil {
			return nil, err
		}
		rv, err := walkpr.TransitionRows(g, v, n, walkpr.Options{})
		if err != nil {
			return nil, err
		}
		ms := speedup.Estimate(shared, shared, u, v, n)
		mi := speedup.Estimate(indepU, indepV, u, v, n)
		for k := 1; k <= n; k++ {
			exact := ru[k].Dot(rv[k])
			errShared += abs(ms[k] - exact)
			errIndep += abs(mi[k] - exact)
			count++
		}
	}
	res := &AblationResult{
		Name: "shared-vs-independent-filters",
		Values: map[string]float64{
			"mae_shared":      errShared / float64(count),
			"mae_independent": errIndep / float64(count),
		},
	}
	fmt.Fprintf(cfg.Out, "Ablation (SR-SP filter pools): MAE shared=%.5f independent=%.5f\n",
		res.Values["mae_shared"], res.Values["mae_independent"])
	return res, nil
}

// AblationChoicePolicy quantifies the distributional difference between
// the Sampling algorithm's re-rolled uniform choice and the Speedup
// algorithm's fixed per-(vertex, process) choice, on a graph with a
// certain 2-cycle where revisits are guaranteed. It reports the mean
// absolute deviation of the step-k occupancy distribution from the exact
// rows, for both samplers.
func AblationChoicePolicy(cfg Config) (*AblationResult, error) {
	cfg = cfg.norm()
	// Dense loops: 0↔1, 0↔2, self-loop at 0, all certain, so both
	// samplers only differ by choice policy.
	b := ugraph.NewBuilder(3)
	b.AddArc(0, 0, 1)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 0, 1)
	b.AddArc(0, 2, 1)
	b.AddArc(2, 0, 1)
	g := b.MustBuild()
	const N, n, src = 40000, 6, 0

	rows, err := walkpr.TransitionRows(g, src, n, walkpr.Options{})
	if err != nil {
		return nil, err
	}

	r := rng.New(cfg.Seed)
	// Speedup-style fixed-choice occupancy.
	f := speedup.BuildFilters(g, N, r.Split())
	tab := speedup.Propagate(f, src, n)
	// Sampling-style re-rolled occupancy.
	walks := sampleOccupancy(g, src, n, N, r.Split())

	var devFixed, devReroll float64
	count := 0
	for k := 1; k <= n; k++ {
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			exact := rows[k].At(v)
			fixed := float64(tab.PopCount(k, v)) / N
			devFixed += abs(fixed - exact)
			devReroll += abs(walks[k][v] - exact)
			count++
		}
	}
	res := &AblationResult{
		Name: "choice-policy",
		Values: map[string]float64{
			"mad_fixed_choice": devFixed / float64(count),
			"mad_rerolled":     devReroll / float64(count),
		},
	}
	fmt.Fprintf(cfg.Out, "Ablation (choice policy): MAD fixed=%.5f re-rolled=%.5f\n",
		res.Values["mad_fixed_choice"], res.Values["mad_rerolled"])
	return res, nil
}

// sampleOccupancy estimates the step-k occupancy distribution with the
// Fig. 4 sampler: N walks drawn by mc.SampleGrid (mc.Sample's walks,
// each in its own lazy world), each visit adding 1/N to its (k, v) cell.
func sampleOccupancy(g *ugraph.Graph, src, n, N int, r *rng.RNG) [][]float64 {
	pos := make([]int32, (n+1)*N)
	var a mc.Arena
	mc.SampleGrid(g, src, n, N, r, &a, pos)
	occ := make([][]float64, n+1)
	for k := range occ {
		occ[k] = make([]float64, g.NumVertices())
		for _, at := range pos[k*N : (k+1)*N] {
			if at >= 0 {
				occ[k][at] += 1.0 / float64(N)
			}
		}
	}
	return occ
}

// AblationStateMerge measures how much the state-merged exact method
// saves over raw walk enumeration (the disk TransPr tuple counts) on a
// diamond-lattice graph where many walks share visit records.
func AblationStateMerge(cfg Config) (*AblationResult, error) {
	cfg = cfg.norm()
	// A stack of diamonds: 2 parallel paths per layer; walks through k
	// layers number 2^k but states collapse per layer pattern.
	const layers = 5
	b := ugraph.NewBuilder(2*layers + 2)
	for l := 0; l < layers; l++ {
		base := 2 * l
		b.AddArc(base, base+1, 0.9)
		b.AddArc(base, base+2, 0.8)
		b.AddArc(base+1, base+2, 0.7) // converge onto the next layer root
	}
	g := b.MustBuild()
	const K = 2 * layers

	dir := tempDirFor(cfg)
	res1, err := transpr.Run(g, K, dir, transpr.Options{})
	if err != nil {
		return nil, err
	}
	var tuples int64
	for _, c := range res1.WalksPerLevel {
		tuples += c
	}

	start := time.Now()
	if _, err := walkpr.TransitionRows(g, 0, K, walkpr.Options{}); err != nil {
		return nil, err
	}
	merged := time.Since(start)

	res := &AblationResult{
		Name: "state-merging",
		Values: map[string]float64{
			"disk_tuples_total":  float64(tuples),
			"merged_rows_millis": float64(merged.Milliseconds()),
		},
	}
	fmt.Fprintf(cfg.Out, "Ablation (state merging): disk TransPr materialised %d tuples; merged in-memory rows took %v\n",
		tuples, merged)
	return res, nil
}

// AblationGirth measures the value of the Lemma 3 product fast path on a
// high-girth graph: matrix propagation (with girth check and W(1) paid
// once, as in TransPr) versus general walk-state tracking per source.
func AblationGirth(cfg Config) (*AblationResult, error) {
	cfg = cfg.norm()
	// Directed circulant with positive jumps 1, 5, 25: no directed cycle
	// shorter than n/25, so the product recurrence is exact for K = 6.
	const n, K = 2048, 6
	b := ugraph.NewBuilder(n)
	r := rng.New(cfg.Seed)
	for i := 0; i < n; i++ {
		for _, j := range []int{1, 5, 25} {
			b.AddArc(i, (i+j)%n, 0.2+0.8*r.Float64())
		}
	}
	g := b.MustBuild()

	prop, err := walkpr.NewProductPropagator(g, K)
	if err != nil {
		return nil, err
	}
	const sources = 50
	fast := stopwatch(sources, func(i int) {
		if _, err := prop.Rows(i); err != nil {
			panic(err)
		}
	})
	general := stopwatch(sources, func(i int) {
		if _, err := walkpr.TransitionRows(g, i, K, walkpr.Options{}); err != nil {
			panic(err)
		}
	})
	res := &AblationResult{
		Name: "girth-fast-path",
		Values: map[string]float64{
			"product_micros": float64(fast.Microseconds()),
			"general_micros": float64(general.Microseconds()),
		},
	}
	fmt.Fprintf(cfg.Out, "Ablation (Lemma 3 fast path): product %v vs general %v per source\n", fast, general)
	return res, nil
}

// AblationLSweep traces the Corollary 1 trade-off: relative error and
// per-query time of SR-TS as the split l grows from 0 to 4.
func AblationLSweep(cfg Config) (*AblationResult, error) {
	cfg = cfg.norm()
	d, err := gen.ByName(cfg.Scale, "Condmat*")
	if err != nil {
		return nil, err
	}
	g := d.Build(cfg.Seed)
	r := rng.New(cfg.Seed + 29)
	pairs := randomPairs(g.NumVertices(), params(cfg.Scale).pairs, r)

	exact, err := core.NewEngine(g, cfg.engineOptions(core.Options{Seed: cfg.Seed}))
	if err != nil {
		return nil, err
	}
	refs := make([]float64, len(pairs))
	for i, pair := range pairs {
		if refs[i], err = exact.Baseline(pair[0], pair[1]); err != nil {
			return nil, err
		}
	}

	res := &AblationResult{Name: "l-sweep", Values: map[string]float64{}}
	fmt.Fprintf(cfg.Out, "Ablation (two-phase split l): Corollary 1 trade-off on %s\n", d.Name)
	for l := 0; l <= 4; l++ {
		e, err := core.NewEngine(g, cfg.engineOptions(core.Options{Seed: cfg.Seed, L: l, N: 200}))
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(pairs))
		mean := stopwatch(len(pairs), func(i int) {
			v, err := e.TwoPhase(pairs[i][0], pairs[i][1])
			if err != nil {
				panic(err)
			}
			vals[i] = v
		})
		errL := meanRelErr(vals, refs)
		res.Values[fmt.Sprintf("relerr_l%d", l)] = errL
		res.Values[fmt.Sprintf("micros_l%d", l)] = float64(mean.Microseconds())
		fmt.Fprintf(cfg.Out, "  l=%d relerr=%.4f time=%v (bound factor %.4f)\n",
			l, errL, mean, core.TwoPhaseErrorBound(0.6, l, 5))
	}
	return res, nil
}

// AblationDiskTransPr contrasts the disk-backed TransPr (the paper's
// Fig. 3 with column-store I/O accounting) against the in-memory exact
// rows on the Fig. 1 example graph.
func AblationDiskTransPr(cfg Config) (*AblationResult, error) {
	cfg = cfg.norm()
	g := ugraph.PaperFig1()
	const K = 5
	dir := tempDirFor(cfg)

	start := time.Now()
	r, err := transpr.Run(g, K, dir, transpr.Options{})
	if err != nil {
		return nil, err
	}
	diskTime := time.Since(start)
	st := r.Store.Stats()

	start = time.Now()
	for src := 0; src < g.NumVertices(); src++ {
		if _, err := walkpr.TransitionRows(g, src, K, walkpr.Options{}); err != nil {
			return nil, err
		}
	}
	memTime := time.Since(start)

	res := &AblationResult{
		Name: "disk-vs-memory-transpr",
		Values: map[string]float64{
			"disk_millis":  float64(diskTime.Milliseconds()),
			"mem_millis":   float64(memTime.Milliseconds()),
			"block_reads":  float64(st.BlockReads),
			"block_writes": float64(st.BlockWrites),
		},
	}
	fmt.Fprintf(cfg.Out, "Ablation (TransPr backing): disk %v (%d block writes, %d reads) vs memory %v\n",
		diskTime, st.BlockWrites, st.BlockReads, memTime)
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
