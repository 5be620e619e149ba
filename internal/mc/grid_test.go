package mc

import (
	"fmt"
	"testing"

	"usimrank/internal/gen"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// gridShapesGraph packs every row shape the samplers treat differently:
// certain (p = 1) arcs mixed into uncertain rows, certain and uncertain
// degree-1 rows, a dead end, certain and uncertain self-loops, and short
// cycles that make walks revisit vertices.
func gridShapesGraph() *ugraph.Graph {
	b := ugraph.NewBuilder(7)
	b.AddArc(0, 1, 1.0)
	b.AddArc(0, 2, 0.5)
	b.AddArc(0, 0, 0.7) // uncertain self-loop
	b.AddArc(0, 3, 1.0)
	b.AddArc(1, 0, 1.0) // certain degree-1 row
	b.AddArc(2, 4, 0.4) // uncertain degree-1 row into the dead end
	b.AddArc(3, 0, 0.9)
	b.AddArc(3, 1, 0.3)
	b.AddArc(3, 3, 1.0) // certain self-loop
	// 4 is a dead end.
	b.AddArc(5, 5, 0.5)
	b.AddArc(5, 6, 1.0)
	b.AddArc(6, 5, 0.25)
	return b.MustBuild()
}

// TestSampleGridMatchesSample pins SampleGrid to Sample walk for walk:
// every grid cell equals Sample's position (or -1 past a walk's death),
// and both samplers leave the RNG in the same state, so they made the
// same calls. The arena is reused across all cases, so stale log or
// out-set state would show up as a mismatch.
func TestSampleGridMatchesSample(t *testing.T) {
	graphs := map[string]*ugraph.Graph{
		"shapes": gridShapesGraph(),
		"fig1":   ugraph.PaperFig1(),
		"rmat":   gen.WithUniformProbs(gen.RMAT(6, 256, 0.45, 0.22, 0.22, rng.New(3)), 0.2, 1.0, rng.New(4)),
	}
	var a Arena
	for name, g := range graphs {
		for _, steps := range []int{1, 5, 8} {
			for _, W := range []int{1, 127, 128, 129} {
				for src := 0; src < g.NumVertices(); src++ {
					seed := uint64(1000*steps + W + 7*src)
					ref := rng.New(seed)
					want := Sample(g, src, steps, W, ref)
					r := rng.New(seed)
					pos := make([]int32, (steps+1)*W)
					SampleGrid(g, src, steps, W, r, &a, pos)
					where := fmt.Sprintf("%s src=%d steps=%d W=%d", name, src, steps, W)
					for i := 0; i < W; i++ {
						for k := 0; k <= steps; k++ {
							if got := pos[k*W+i]; got != want.At(i, k) {
								t.Fatalf("%s: walk %d step %d at %d, Sample has %d", where, i, k, got, want.At(i, k))
							}
						}
					}
					if r.Uint64() != ref.Uint64() {
						t.Fatalf("%s: RNG streams diverged after sampling", where)
					}
				}
			}
		}
	}
}

// TestSampleGridAllocFree: with a warmed arena the grid sampler
// allocates nothing.
func TestSampleGridAllocFree(t *testing.T) {
	g := gridShapesGraph()
	const steps, W = 5, 128
	var a Arena
	pos := make([]int32, (steps+1)*W)
	var r rng.RNG
	r.Reseed(7)
	SampleGrid(g, 0, steps, W, &r, &a, pos) // warm the high-water marks
	allocs := testing.AllocsPerRun(50, func() {
		r.Reseed(7)
		SampleGrid(g, 0, steps, W, &r, &a, pos)
	})
	if allocs != 0 {
		t.Fatalf("warmed SampleGrid allocates %v per run, want 0", allocs)
	}
}
