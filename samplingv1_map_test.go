package usimrank_test

import (
	"math"
	"testing"

	"usimrank"
	"usimrank/internal/core"
	"usimrank/internal/gen"
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// v1MapPath is the map-based Sampling kernel (Fig. 4) that the v1 legs
// of BenchmarkSamplingV2 time, frozen as test code: per chunk, mc.Sample
// draws each walk in its own ugraph.LazyWorld map, mc.MeetingCounts
// counts the meetings and the per-chunk counts merge in chunk order; a
// source's walks are sampled once and replayed against every
// candidate's. The bench gate's ≥2× v2-over-v1 bound was set against
// this path. The engine now draws AlgSampling's walks on grids, where
// its kernel would time the walk driver and the walk memo instead, so
// the v1 legs keep timing this copy, and
// TestFrozenV1LegsMatchSampling pins its scores to AlgSampling's bit
// for bit: the gate still compares two implementations of the same
// numbers. It runs serially, as the engine does at Parallelism 1.
type v1MapPath struct {
	rev *ugraph.Graph // the reversed graph, where the walks run
	opt core.Options  // the engine's effective options
}

func newV1MapPath(e *usimrank.Engine) *v1MapPath {
	return &v1MapPath{rev: e.Graph().Reverse(), opt: e.Options()}
}

// The engine's per-side walk-stream salts.
const (
	v1SaltU = 0xA5
	v1SaltV = 0x5A
)

// sideSeed is a copy of the engine's per-side seed mix: the seed of
// vertex v's walk stream on one side.
func (m *v1MapPath) sideSeed(v int, salt uint64) uint64 {
	x := m.opt.Seed ^ (uint64(v)+1)*0x9e3779b97f4a7c15 ^ salt*0xc2b2ae3d27d4eb4f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// chunks splits v's side stream into the engine's fixed-size chunks,
// seeded in chunk order.
func (m *v1MapPath) chunks(v int, salt uint64) []parallel.Chunk {
	return parallel.SplitChunks(m.opt.N, parallel.DefaultChunkSize, rng.New(m.sideSeed(v, salt)))
}

// walks samples chunk c of a stream from v.
func (m *v1MapPath) walks(v int, c parallel.Chunk) *mc.Walks {
	return mc.Sample(m.rev, v, m.opt.Steps, c.Len(), rng.New(c.Seed))
}

// combine merges per-chunk meeting counts, in chunk order, into the
// m̂(k) estimate of Eq. 13 and the score of Eq. 14.
func (m *v1MapPath) combine(counts [][]int) float64 {
	est := make([]float64, m.opt.Steps+1)
	for _, c := range counts {
		for k, x := range c {
			est[k] += float64(x)
		}
	}
	for k := range est {
		est[k] /= float64(m.opt.N)
	}
	return core.Combine(est, m.opt.C, m.opt.Steps)
}

// score is AlgSampling's s(u, v) on the map path.
func (m *v1MapPath) score(u, v int) float64 {
	cu, cv := m.chunks(u, v1SaltU), m.chunks(v, v1SaltV)
	counts := make([][]int, len(cu))
	for ci := range cu {
		counts[ci] = mc.MeetingCounts(m.walks(u, cu[ci]), m.walks(v, cv[ci]))
	}
	return m.combine(counts)
}

// source writes AlgSampling's s(u, cands[i]) on the map path to out[i]:
// u's walks sampled once per chunk, replayed against each candidate's.
func (m *v1MapPath) source(u int, cands []int, out []float64) {
	cu := m.chunks(u, v1SaltU)
	wu := make([]*mc.Walks, len(cu))
	for ci, c := range cu {
		wu[ci] = m.walks(u, c)
	}
	for i, v := range cands {
		cv := m.chunks(v, v1SaltV)
		counts := make([][]int, len(cv))
		for ci, c := range cv {
			counts[ci] = mc.MeetingCounts(wu[ci], m.walks(v, c))
		}
		out[i] = m.combine(counts)
	}
}

// samplingBenchGraph is BenchmarkSamplingV2's graph.
func samplingBenchGraph() *usimrank.Graph {
	return gen.WithUniformProbs(gen.RMAT(9, 4096, 0.45, 0.22, 0.22, rng.New(1)), 0.2, 0.9, rng.New(2))
}

// samplingBenchCandidates is the candidate set of BenchmarkSamplingV2's
// source legs.
func samplingBenchCandidates(n int) []int {
	cands := make([]int, 64)
	for i := range cands {
		cands[i] = (i * 13) % n
	}
	return cands
}

// TestFrozenV1LegsMatchSampling: on BenchmarkSamplingV2's graph and
// options, the frozen map path's pair and source scores have the bits
// of AlgSampling's, for the queries the v1 legs time first.
func TestFrozenV1LegsMatchSampling(t *testing.T) {
	g := samplingBenchGraph()
	n := g.NumVertices()
	e, err := usimrank.New(g, usimrank.Options{N: 1024, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1 := newV1MapPath(e)
	for i := 0; i < 8; i++ {
		u, v := i%n, (i*7+1)%n
		want, err := e.Compute(usimrank.AlgSampling, u, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := v1.score(u, v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("score s(%d,%d): map path %v, AlgSampling %v", u, v, got, want)
		}
	}
	cands := samplingBenchCandidates(n)
	got := make([]float64, len(cands))
	for u := 0; u < 3; u++ {
		want, err := e.SingleSourceAgainst(usimrank.AlgSampling, u, cands)
		if err != nil {
			t.Fatal(err)
		}
		v1.source(u, cands, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("source s(%d,%d): map path %v, AlgSampling %v", u, cands[i], got[i], want[i])
			}
		}
	}
}
