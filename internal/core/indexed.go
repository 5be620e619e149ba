package core

// The indexed single-source strategy: the first query path whose
// request-time cost is independent of the candidate count's sampling
// work. An offline pass (usimrank/internal/index) runs the engine's
// v-side walk streams once per vertex and stores, for every vertex v
// and step k, the empirical occupancy distribution
//
//	occ_v[k](w) = #{ v-side walks of v at vertex w after k steps } / N
//
// — a sparse probability (sub-)vector over the reversed graph, summing
// to the fraction of walks still alive at step k. At query time only
// the SOURCE's walks are sampled (the "residual sample", the same
// u-side chunk streams every other sampling kernel uses); each
// candidate then costs one sparse dot product per step:
//
//	m̂(k)(u, v) = ⟨occ_u[k], occ_v[k]⟩
//	           = (1/N²) · Σᵢ Σⱼ 1[Wᵘᵢ(k) = Wᵛⱼ(k)]
//
// Accuracy contract: the u-side and v-side streams are independent (the
// per-side salts guarantee it, even for v = u), so the double sum
// averages N² independent-pair indicators where the Sampling algorithm
// (Eq. 13) averages the N diagonal ones. The estimator is therefore
// unbiased for m(k)(u, v) with variance at most that of Sampling at
// equal N, and the Hoeffding bound the paper derives for Eq. 14 applies
// verbatim. It is NOT bit-identical to Sampling — it is a strictly
// larger average over the same walk randomness — and the oracle suite
// pins it to the exact possible-world measure within the same tolerance
// as the sampled algorithms.
//
// Generation discipline: an index stores the graph generation, engine
// seed, sample count and depth it was built under; CheckIndex refuses
// any mismatch, so a serving plane can never silently answer from an
// index that disagrees with the resident engine's walk streams.

import (
	"context"
	"fmt"
	"math/bits"

	"usimrank/internal/matrix"
	"usimrank/internal/obs"
	"usimrank/internal/parallel"
)

// SourceIndex is a read-only per-vertex occupancy index as the indexed
// single-source kernel consumes it. Row(v, k) is occ_v[k] for
// k = 0..Depth; implementations must make Row safe for concurrent use
// and panic-free for v in [0, NumVertices()) and k in [0, Depth()].
// usimrank/internal/index provides the mmap-backed implementation.
type SourceIndex interface {
	// Generation is the engine graph generation the rows were computed
	// at (Engine.Generation of the builder).
	Generation() uint64
	// NumVertices is the vertex count of the indexed graph.
	NumVertices() int
	// Depth is the deepest indexed step; rows cover k = 0..Depth.
	Depth() int
	// Samples is the walk count N the rows were estimated from.
	Samples() int
	// Seed is the engine seed the v-side walk streams derived from.
	Seed() uint64
	// Row returns occ_v[k], immutable and possibly empty.
	Row(v, k int) matrix.Vec
}

// CheckIndex reports whether x can serve indexed queries for this
// engine: same vertex count, same sample count and seed (the u-side
// residual stream must pair with the v-side streams the rows came
// from), depth covering Steps, and exactly the engine's graph
// generation. A nil error is the serving plane's license to probe.
func (e *Engine) CheckIndex(x SourceIndex) error {
	if x == nil {
		return fmt.Errorf("core: nil index")
	}
	if x.NumVertices() != e.g.NumVertices() {
		return fmt.Errorf("core: index covers %d vertices, graph has %d", x.NumVertices(), e.g.NumVertices())
	}
	if x.Samples() != e.opt.N {
		return fmt.Errorf("core: index built with N=%d, engine runs N=%d", x.Samples(), e.opt.N)
	}
	if x.Seed() != e.opt.Seed {
		return fmt.Errorf("core: index built with seed %d, engine runs seed %d", x.Seed(), e.opt.Seed)
	}
	if x.Depth() < e.opt.Steps {
		return fmt.Errorf("core: index depth %d < engine steps %d", x.Depth(), e.opt.Steps)
	}
	if x.Generation() != e.gen {
		return fmt.Errorf("core: index generation %d != engine generation %d", x.Generation(), e.gen)
	}
	return nil
}

// occupancyWith folds one vertex-side's walk stream into per-step
// occupancy vectors occ[k], k = 0..Steps: the rows index.Build stores,
// index.Patch recomputes, and the indexed kernel samples as the
// source's residual. sampleSide draws the stream (walkgrid.go): the
// chunks fan out over p and each is drawn by mc.SampleGrid — Sample's
// walks, RNG call for RNG call, written into a position grid without
// allocating. The fold then walks the steps; per step it counts each
// chunk's positions as integers and adds float64(count)·(1/N) per
// vertex into a dense accumulator, chunk by chunk in chunk order.
//
// Bit-identity: that is exactly the arithmetic of the reference map
// fold over mc.Sample that occupancy_test.go keeps (per-chunk integer
// counts, then total[at] += float64(c)·invN over the chunks in order,
// from zero), so the rows are bit-identical to it. Summing the integer
// counts across chunks first would round differently. The result is
// the same for every Parallelism value, and identical whether computed
// at build time (v-side) or query time (u-side residual).
//
// Cost: all scratch — arena, grids, dense counters — comes from the
// engine's pooled v2scratch, so a warmed call allocates only the rows
// it returns (2 per non-empty step plus the row slice). Time is the
// walks' RNG work plus O(N·Steps) for the fold and one bitset scan up to
// the highest occupied vertex per step; the dense buffers cost 12 bytes
// per graph vertex in each scratch that has run the fold.
func (e *Engine) occupancyWith(p *parallel.Pool, v int, salt uint64) []matrix.Vec {
	s := e.v2pool.Get()
	defer e.release(s)
	e.sampleSide(p, s, sideDraw{}, v, salt)
	return e.foldOccupancy(s)
}

// foldOccupancy turns the sampled chunk grids of s into the occupancy
// rows, each sorted by vertex. Chunks a cancelled pool never ran are
// skipped; the caller checks ctx.Err() and discards the result.
func (e *Engine) foldOccupancy(s *v2scratch) []matrix.Vec {
	n := e.g.NumVertices()
	s.cnt = grow(s.cnt, n)
	s.acc = grow(s.acc, n)
	s.hit = grow(s.hit, (n+63)/64)
	invN := 1 / float64(e.opt.N)
	occ := make([]matrix.Vec, e.opt.Steps+1)
	for k := range occ {
		entries := 0
		for ci, c := range s.cu {
			if s.gridU[ci] == nil {
				continue
			}
			W := c.Len()
			row := s.gridU[ci][k*W:][:W]
			for _, at := range row {
				if at >= 0 {
					s.cnt[at]++
				}
			}
			for _, at := range row {
				if at < 0 || s.cnt[at] == 0 {
					continue // dead walk, or a vertex this chunk already added
				}
				if bit := uint64(1) << (at & 63); s.hit[at>>6]&bit == 0 {
					s.hit[at>>6] |= bit
					entries++
				}
				s.acc[at] += float64(s.cnt[at]) * invN
				s.cnt[at] = 0
			}
		}
		occ[k] = s.takeRow(entries)
	}
	return occ
}

// takeRow moves the step's entries out of the dense accumulator into a
// freshly allocated sorted row, clearing acc and hit behind it. The
// bitset scan stops at the last occupied word.
func (s *v2scratch) takeRow(entries int) matrix.Vec {
	row := matrix.Vec{Idx: make([]int32, entries), Val: make([]float64, entries)}
	j := 0
	for wi := 0; j < entries; wi++ {
		word := s.hit[wi]
		s.hit[wi] = 0
		for ; word != 0; word &= word - 1 {
			at := int32(wi<<6 | bits.TrailingZeros64(word))
			row.Idx[j], row.Val[j] = at, s.acc[at]
			s.acc[at] = 0
			j++
		}
	}
	return row
}

// VSideOccupancy computes the v-side occupancy rows of one vertex —
// exactly what the index stores for it. The offline builder fans
// vertices out over the worker pool and calls this per vertex; the
// update plane recomputes exactly the BFS-touched vertices through the
// same entry point, which is what makes a patched index bit-identical
// to a fresh rebuild.
func (e *Engine) VSideOccupancy(v int) ([]matrix.Vec, error) {
	if err := e.checkVertex(v); err != nil {
		return nil, err
	}
	return e.occupancyWith(nil, v, saltWalkV), nil
}

// SingleSourceIndexed computes s(u, v) for every vertex v by probing x:
// u's residual walks are sampled once, then every candidate costs
// Steps+1 sparse dot products against its index rows — no per-candidate
// sampling, so the request-time cost is independent of how much walk
// work went into the index. See the package comment above for the
// accuracy contract relative to SingleSource(AlgSampling, u).
func (e *Engine) SingleSourceIndexed(x SourceIndex, u int) ([]float64, error) {
	return e.SingleSourceIndexedAgainst(x, u, e.allCandidates())
}

// SingleSourceIndexedAgainst is SingleSourceIndexed restricted to an
// explicit candidate set: out[i] = ŝ(u, candidates[i]).
func (e *Engine) SingleSourceIndexedAgainst(x SourceIndex, u int, candidates []int) ([]float64, error) {
	return e.singleSourceIndexedWith(e.pool, obs.Span{}, x, u, candidates)
}

// SingleSourceIndexedCtx is SingleSourceIndexed with cancellation.
func (e *Engine) SingleSourceIndexedCtx(ctx context.Context, x SourceIndex, u int) ([]float64, error) {
	return e.SingleSourceIndexedAgainstCtx(ctx, x, u, e.allCandidates())
}

// SingleSourceIndexedAgainstCtx is SingleSourceIndexedAgainst with
// cancellation, following the engine-wide contract: a query that
// completes before the deadline is bit-identical to the plain call.
func (e *Engine) SingleSourceIndexedAgainstCtx(ctx context.Context, x SourceIndex, u int, candidates []int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := e.singleSourceIndexedWith(e.pool.WithContext(ctx), obs.SpanFromContext(ctx), x, u, candidates)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// singleSourceIndexedWith runs the indexed kernel. sp, when enabled, is
// the ambient request span under which the two phases — residual
// sampling of the source, index probing per candidate — are recorded as
// separate timed children; the zero Span makes every trace call a
// no-op, so untraced queries pay nothing.
func (e *Engine) singleSourceIndexedWith(p *parallel.Pool, sp obs.Span, x SourceIndex, u int, candidates []int) ([]float64, error) {
	if err := e.CheckIndex(x); err != nil {
		return nil, err
	}
	if err := e.checkVertex(u); err != nil {
		return nil, err
	}
	for _, v := range candidates {
		if err := e.checkVertex(v); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(candidates))
	if len(candidates) == 0 {
		return out, nil // nothing to score; skip the residual sample too
	}
	res := sp.Start("index_residual")
	res.Add("residual_walks", int64(e.opt.N))
	occU := e.occupancyWith(p, u, saltWalkU)
	res.End()
	n := e.opt.Steps
	probe := sp.Start("index_probe")
	probe.Add("rows_probed", int64(len(candidates))*int64(n+1))
	p.For(len(candidates), func(i int) {
		v := candidates[i]
		m := make([]float64, n+1)
		for k := 0; k <= n; k++ {
			m[k] = occU[k].Dot(x.Row(v, k))
		}
		out[i] = Combine(m, e.opt.C, n)
	})
	probe.End()
	return out, nil
}
