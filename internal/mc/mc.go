// Package mc implements the paper's Sampling algorithm (Fig. 4): Monte
// Carlo estimation of the meeting probabilities m(k)(u,v) from N pairs of
// random walks, each walk running in its own lazily instantiated possible
// world.
//
// The sampling discipline matters for correctness under the possible-world
// model: the first time a walk visits a vertex, every arc leaving it is
// flipped once and the outcome is remembered for the lifetime of that
// walk; later visits reuse the instantiation and only re-roll the uniform
// choice among the instantiated arcs. A walk that reaches a vertex with no
// instantiated out-arcs is dead: it stays nowhere and can never meet.
package mc

import (
	"fmt"
	"math"

	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// Walks holds N sampled walks of length up to Steps starting at Src.
// Walk i occupies positions Pos[i][0..Alive[i]]; Alive[i] is the index of
// the last step at which the walk was still on a vertex (Steps if it
// never died).
type Walks struct {
	Src   int32
	Steps int
	N     int
	Pos   [][]int32
}

// Sample draws N walks of length n from src per Fig. 4. Each walk gets an
// independent lazy world. The caller owns r.
//
// Sample is the reference sampler: SampleGrid draws exactly its walks
// without its allocations, and the engine draws with SampleGrid only;
// tests pin the grid paths to Sample, MeetingCounts and
// MeetingEstimates.
func Sample(g *ugraph.Graph, src int, n, N int, r *rng.RNG) *Walks {
	if src < 0 || src >= g.NumVertices() {
		panic(fmt.Sprintf("mc: source %d out of range [0,%d)", src, g.NumVertices()))
	}
	if n < 0 || N <= 0 {
		panic(fmt.Sprintf("mc: bad parameters n=%d N=%d", n, N))
	}
	w := &Walks{Src: int32(src), Steps: n, N: N, Pos: make([][]int32, N)}
	world := ugraph.NewLazyWorld(g, r)
	for i := 0; i < N; i++ {
		world.Reset()
		walk := make([]int32, 1, n+1)
		walk[0] = int32(src)
		for step := 0; step < n; step++ {
			cur := walk[len(walk)-1]
			nbrs := world.Out(cur)
			if len(nbrs) == 0 {
				break // dead end: the sampled world has no arc out of cur
			}
			walk = append(walk, nbrs[r.Intn(len(nbrs))])
		}
		w.Pos[i] = walk
	}
	return w
}

// At returns the vertex of walk i at step k, or -1 if the walk died
// before step k.
func (w *Walks) At(i, k int) int32 {
	if k >= len(w.Pos[i]) {
		return -1
	}
	return w.Pos[i][k]
}

// MeetingCounts returns, for k = 0..n, the number of walk pairs
// (Wᵘᵢ, Wᵛᵢ) that are on the same vertex at step k. The integer counts
// are the mergeable form of Eq. 13: chunked samplers sum the per-chunk
// counts (addition is order-independent, so the merged total is
// bit-identical for any chunk scheduling) and divide by the overall N
// once at the end. The two Walks must have equal Steps and N.
func MeetingCounts(wu, wv *Walks) []int {
	if wu.Steps != wv.Steps || wu.N != wv.N {
		panic("mc: mismatched walk sets")
	}
	n, N := wu.Steps, wu.N
	counts := make([]int, n+1)
	for i := 0; i < N; i++ {
		limit := len(wu.Pos[i])
		if l := len(wv.Pos[i]); l < limit {
			limit = l
		}
		for k := 0; k < limit; k++ {
			if wu.Pos[i][k] == wv.Pos[i][k] {
				counts[k]++
			}
		}
	}
	return counts
}

// MeetingEstimates returns the estimates m̂(k)(u,v) for k = 0..n per
// Eq. 13: the fraction of walk pairs (Wᵘᵢ, Wᵛᵢ) that are on the same
// vertex at step k. The two Walks must have equal Steps and N.
func MeetingEstimates(wu, wv *Walks) []float64 {
	counts := MeetingCounts(wu, wv)
	m := make([]float64, len(counts))
	for k, c := range counts {
		m[k] = float64(c) / float64(wu.N)
	}
	return m
}

// RequiredSamples returns the sample size N ≥ (3/ε²)·ln(2/δ) of Lemma 4
// that guarantees |m(k) − m̂(k)| ≤ ε with probability ≥ 1 − δ.
func RequiredSamples(eps, delta float64) int {
	if !(eps > 0) || !(delta > 0 && delta < 1) {
		panic(fmt.Sprintf("mc: bad accuracy parameters eps=%v delta=%v", eps, delta))
	}
	n := 3.0 / (eps * eps) * math.Log(2/delta)
	return int(n) + 1
}
