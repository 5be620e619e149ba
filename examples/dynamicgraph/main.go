// Dynamicgraph walks through the incremental update plane: mutate arcs
// of a live engine with Engine.ApplyUpdates and watch the targeted
// invalidation keep warm state alive, then verify the derived engine
// answers bit-identically to a from-scratch rebuild of the mutated
// graph — at a fraction of the cost.
//
// The serving-plane twin of this walkthrough is POST /v1/admin/update
// on usimd, which applies the same batches under live traffic with
// zero downtime (in-flight queries finish on their pinned generation).
package main

import (
	"fmt"
	"log"
	"time"

	"usimrank"
	"usimrank/internal/gen"
	"usimrank/internal/rng"
)

func main() {
	// A mid-sized synthetic collaboration network: big enough that a
	// full engine rebuild visibly costs something.
	g := gen.CoAuthorship(3000, 2, rng.New(11))
	fmt.Printf("graph: %d vertices, %d arcs\n", g.NumVertices(), g.NumArcs())

	opt := usimrank.Options{C: 0.6, Steps: 5, N: 1000, L: 1, Seed: 7}
	engine, err := usimrank.New(g, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Warm the engine the way serving traffic would: SR-SP filter pools
	// plus the row cache for a spread of sources.
	warmStart := time.Now()
	engine.WarmFilters()
	sources := make([]int, 0, 1000)
	for v := 0; v < g.NumVertices(); v += 3 {
		sources = append(sources, v)
	}
	if err := engine.WarmRowsFor(usimrank.AlgTwoPhase, sources); err != nil {
		log.Fatal(err)
	}
	rows, _ := engine.RowCacheStats()
	fmt.Printf("warmed: SR-SP filter pools + %d cached row sets in %v\n\n", rows, time.Since(warmStart).Round(time.Millisecond))

	u, v := 42, 137
	before, err := engine.SRSP(u, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before updates: s(%d,%d) = %.6f  [generation %d]\n\n", u, v, before, engine.Generation())

	// A mixed mutation batch: a collaboration strengthens, one
	// dissolves, and a new low-confidence link appears.
	var free usimrank.ArcUpdate
	for w := 0; w < g.NumVertices(); w++ {
		if !g.HasArc(u, w) && u != w {
			free = usimrank.ArcUpdate{Op: usimrank.OpInsert, U: u, V: w, P: 0.3}
			break
		}
	}
	delU := -1
	var delV int
	for w := 0; w < g.NumVertices(); w++ {
		if out := g.Out(w); len(out) > 0 {
			delU, delV = w, int(out[0])
			break
		}
	}
	updates := []usimrank.ArcUpdate{
		{Op: usimrank.OpReweight, U: delU, V: delV, P: 0.99},
		{Op: usimrank.OpDelete, U: delU, V: delV},
		free,
	}
	// Note the first two touch the same arc: staged updates compose, so
	// a reweight followed by a delete nets out to the delete.

	applyStart := time.Now()
	derived, stats, err := engine.ApplyUpdates(updates)
	if err != nil {
		log.Fatal(err)
	}
	applyTime := time.Since(applyStart)
	fmt.Printf("ApplyUpdates: %d arcs changed in %v\n", stats.Applied, applyTime.Round(time.Microsecond))
	fmt.Printf("  generation            %d -> %d\n", engine.Generation(), derived.Generation())
	fmt.Printf("  row cache             %d evicted, %d retained (%.1f%% invalidated)\n",
		stats.RowsEvicted, stats.RowsRetained,
		100*float64(stats.RowsEvicted)/float64(stats.RowsEvicted+stats.RowsRetained))
	fmt.Printf("  SR-SP filter pools    patched=%v, %d vertices invalidated (of %d), re-sampled on first use\n\n",
		stats.FiltersPatched, stats.FilterVerticesRebuilt, 2*g.NumVertices())

	// The old engine is untouched — in-flight queries would still be
	// computing on it.
	stillBefore, err := engine.SRSP(u, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("old engine still answers the old graph: s(%d,%d) = %.6f\n", u, v, stillBefore)

	// Bit-identity: the derived engine equals a from-scratch rebuild of
	// the mutated graph.
	rebuildStart := time.Now()
	rebuilt, err := usimrank.New(derived.Graph(), opt)
	if err != nil {
		log.Fatal(err)
	}
	rebuilt.WarmFilters()
	rebuildTime := time.Since(rebuildStart)

	for _, alg := range usimrank.Algorithms() {
		a, err := derived.Compute(alg, u, v)
		if err != nil {
			log.Fatal(err)
		}
		b, err := rebuilt.Compute(alg, u, v)
		if err != nil {
			log.Fatal(err)
		}
		match := "BIT-IDENTICAL"
		if a != b {
			match = "MISMATCH (bug!)"
		}
		fmt.Printf("  %-10v derived %.9f  rebuilt %.9f  %s\n", alg, a, b, match)
	}
	fmt.Printf("\nincremental apply %v vs rebuild+warm %v (%.0fx)\n",
		applyTime.Round(time.Microsecond), rebuildTime.Round(time.Millisecond),
		float64(rebuildTime)/float64(applyTime))
}
