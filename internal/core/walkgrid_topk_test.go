package core_test

import (
	"fmt"
	"math"
	"testing"

	"usimrank/internal/core"
	"usimrank/internal/topk"
)

// TestTwoPhaseTopKMatchesMapTail extends the grid-tail pin to top-k:
// topk.SingleSource over AlgTwoPhase, the query usimrank.TopKSimilar
// serves, must rank exactly the scores CombineTwoPhase gives on the map
// tail MeetingSampledMap. It lives outside package core because topk
// imports core.
func TestTwoPhaseTopKMatchesMapTail(t *testing.T) {
	g := core.GridPinGraph(10, 8)
	const k = 4
	for _, N := range []int{129, 1000} {
		for _, par := range []int{1, 4} {
			e, err := core.NewEngine(g, core.Options{N: N, Seed: 8, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			opt := e.Options()
			for u := 0; u < g.NumVertices(); u++ {
				var all []topk.Result
				for v := 0; v < g.NumVertices(); v++ {
					if v == u {
						continue
					}
					exact, err := e.MeetingExact(u, v, opt.L)
					if err != nil {
						t.Fatal(err)
					}
					tail, err := core.MeetingSampledMap(e, u, v)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, topk.Result{U: u, V: v, Score: core.CombineTwoPhase(exact, tail, opt.C, opt.L, opt.Steps)})
				}
				want := topk.Merge(k, all)
				got, err := topk.SingleSource(e, core.AlgTwoPhase, u, k)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("N=%d par=%d u=%d", N, par, u)
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, want %d", where, len(got), len(want))
				}
				for i := range want {
					if got[i].V != want[i].V || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%s: rank %d is (%d, %v), map tail ranks (%d, %v)", where, i, got[i].V, got[i].Score, want[i].V, want[i].Score)
					}
				}
			}
		}
	}
}
