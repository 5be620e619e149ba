package core

import (
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
)

// The engine's walk driver: the Sampling algorithm's walk streams
// (Fig. 4) drawn on position grids (pos[k*W+i], -1 once dead) in pooled
// v2scratch buffers, allocation-free once warm. Every walk the engine
// draws fills its chunk through drawChunk, the one place that picks the
// sampler, as the side's sideDraw says:
//
//   - no plan: mc.SampleGrid, exactly mc.Sample's walks — the same RNG
//     calls in the same order. Sampling and SR-TS's sampled tail (the
//     Eq. 15 kernels twoPhaseWith and twoPhaseKernel) and the occupancy
//     fold (indexed.go: index build, index patch and the indexed
//     residual) draw these, and stay bit-identical to the map path:
//     the tail counts meetings with mc.CountMeets — MeetingCounts'
//     semantics — and merges the per-chunk integer counts in chunk
//     order.
//   - a *mc.Plan: the v2 Plan.Sample, Sampling-v2's lockstep walks,
//     pinned by their own goldens. Sampling-v2's kernels (the same Eq.
//     15 kernels) and the adaptive rounds (adaptive.go) draw these, and
//     their arc instantiations and arena high-water are tallied for the
//     kernel counters too (see release).
//
// The rest is shared: a side's chunk set and grid layout (layoutSide),
// the chunk fan-out (drawSide), the meeting count of a v-side chunk
// against the source's chunk (meetChunk) and the in-order merge
// (mergeChunkCounts). So a source's grids are the same chunks in the
// same layout whichever kernel asks, and a v-side chunk is drawn with
// its source's sampler.
//
// drawChunk also serves the walk memo (walkmemo.go): the source
// kernel's sides without a plan, which Sampling and SR-TS share, may
// reuse a chunk kept on an earlier query, even on an earlier
// generation, when none of its walks left a row that changed since.
// Every other side is drawn into scratch.

// layoutSide prepares s for one vertex-side's stream cut to its first
// walks walks, drawn as sd says: its chunk set in s.cu, each chunk
// seeded in chunk order from the side's stream (sideSeed), one grid
// block per chunk in s.posU, s.gridU cleared — no chunk drawn yet — and
// s.side = sd. The chunk set is prefix-stable: a layout for more walks,
// in whole chunks, starts with the same chunks, so the adaptive rounds
// draw only the new ones.
func (e *Engine) layoutSide(s *v2scratch, sd sideDraw, v int, salt uint64, walks int) {
	s.r.Reseed(e.sideSeed(v, salt))
	s.cu = parallel.AppendChunks(s.cu[:0], walks, parallel.DefaultChunkSize, &s.r)
	s.layoutGrids(e.opt.Steps + 1)
	s.gridU = grow(s.gridU, len(s.cu))
	clear(s.gridU)
	s.side = sd
}

// layoutGrids sizes s.posU to hold one stride×W position grid per chunk
// of s.cu, back to back: chunk ci's grid is s.posU[s.uoff[ci]:s.uoff[ci+1]].
func (s *v2scratch) layoutGrids(stride int) {
	s.uoff = grow(s.uoff, len(s.cu)+1)
	total := 0
	for ci, c := range s.cu {
		s.uoff[ci] = int32(total)
		total += stride * c.Len()
	}
	s.uoff[len(s.cu)] = int32(total)
	s.posU = grow(s.posU, total)
}

// sampleSide draws one vertex-side's whole walk stream of N walks as sd
// says (see layoutSide and drawChunk), the chunks fanned out over p.
func (e *Engine) sampleSide(p *parallel.Pool, s *v2scratch, sd sideDraw, v int, salt uint64) {
	e.layoutSide(s, sd, v, salt, e.opt.N)
	e.drawSide(p, s, v, 0)
}

// drawSide draws chunks from..len(s.cu)-1 of the side laid out in s,
// fanned out over p. A cancelled pool skips chunks; s.gridU[ci] stays
// nil for those.
func (e *Engine) drawSide(p *parallel.Pool, s *v2scratch, v, from int) {
	if nch := len(s.cu); p.Workers() <= 1 || nch-from == 1 {
		for ci := from; ci < nch && p.Err() == nil; ci++ {
			e.sideChunk(s, s, v, ci)
		}
	} else {
		p.For(nch-from, func(i int) {
			w := e.v2pool.Get()
			defer e.release(w)
			e.sideChunk(s, w, v, from+i)
		})
	}
}

// sideChunk draws chunk ci of s's side as s.side says, into its block
// of s.posU unless it is reused or kept, using w's arena (w == s on the
// serial path), and records its grid in s.gridU[ci].
func (e *Engine) sideChunk(s, w *v2scratch, v, ci int) {
	s.gridU[ci] = e.drawChunk(w, &s.side, v, ci, s.cu[ci], s.posU[s.uoff[ci]:s.uoff[ci+1]])
}

// drawChunk returns the grid of chunk c, the ci-th of v's walk stream:
// sd.prev's when it is reusable, else a draw from the chunk's seed with
// sd's sampler and w's arena — into dst, or into a fresh grid when sd
// keeps the side, since kept grids are immutable. It tallies the walks
// drawn or reused, and a plan's arc instantiations and arena footprint,
// in w (see release).
func (e *Engine) drawChunk(w *v2scratch, sd *sideDraw, v, ci int, c parallel.Chunk, dst []int32) []int32 {
	n, W := e.opt.Steps, c.Len()
	if sd.reusable(ci, n*W) {
		w.tally.reused += uint64(W)
		return sd.prev.grids[ci]
	}
	if sd.keep {
		dst = make([]int32, (n+1)*W)
	}
	w.r.Reseed(c.Seed)
	if sd.plan != nil {
		sd.plan.Sample(v, n, W, &w.r, &w.arena, dst)
		w.tally.arcs += uint64(w.arena.Instantiated())
		w.tally.arena = max(w.tally.arena, w.arena.FootprintBytes())
	} else {
		mc.SampleGrid(e.rev, v, n, W, &w.r, &w.arena, dst)
	}
	w.tally.walks += uint64(W)
	return dst
}

// meetChunk draws c, the ci-th chunk of v's v-side stream, as sd says
// (into w.posV unless reused or kept) and adds its meetings with the
// ci-th source grid of s into counts (Steps+1 entries). It returns the
// chunk's grid.
func (e *Engine) meetChunk(s, w *v2scratch, sd *sideDraw, v, ci int, c parallel.Chunk, counts []int64) []int32 {
	n, W := e.opt.Steps, c.Len()
	w.posV = grow(w.posV, (n+1)*W)
	grid := e.drawChunk(w, sd, v, ci, c, w.posV)
	mc.CountMeets(s.gridU[ci], grid, n, W, counts)
	return grid
}

// meetingGridWith is the sampled m̂(k) estimate of one pair on grids,
// both sides drawn with plan (nil: mc.SampleGrid, the map path's
// estimate bit for bit): chunk ci draws u's ci-th chunk into its block
// of s.posU (sideChunk) and v's ci-th chunk into scratch, and counts
// their meetings into its own slot of s.counts. The chunks fan out over
// p. The estimate is returned in s.m, valid while the caller holds s.
func (e *Engine) meetingGridWith(p *parallel.Pool, s *v2scratch, plan *mc.Plan, u, v int) []float64 {
	e.layoutSide(s, sideDraw{plan: plan}, u, saltWalkU, e.opt.N)
	s.r.Reseed(e.sideSeed(v, saltWalkV))
	s.cv = parallel.AppendChunks(s.cv[:0], e.opt.N, parallel.DefaultChunkSize, &s.r)
	nch := len(s.cu)
	s.counts = grow(s.counts, nch*(e.opt.Steps+1))
	clear(s.counts)
	if p.Workers() <= 1 || nch == 1 {
		for ci := 0; ci < nch && p.Err() == nil; ci++ {
			e.pairGridChunk(s, s, u, v, ci)
		}
	} else {
		p.For(nch, func(ci int) {
			w := e.v2pool.Get()
			defer e.release(w)
			e.pairGridChunk(s, w, u, v, ci)
		})
	}
	return e.mergeChunkCounts(s, nch)
}

// pairGridChunk is chunk ci of meetingGridWith, sampled with w's
// scratch (w == s on the serial path). v's chunk is drawn as u's.
func (e *Engine) pairGridChunk(s, w *v2scratch, u, v, ci int) {
	stride := e.opt.Steps + 1
	e.sideChunk(s, w, u, ci)
	e.meetChunk(s, w, &s.side, v, ci, s.cv[ci], s.counts[ci*stride:(ci+1)*stride])
}

// candidateGrid is one candidate's sampled m̂(k) estimate against a
// source drawn once: v's v-side chunks are drawn as sd says, one after
// another with w's scratch, and counted against the source grids s
// holds. The estimate is bit-identical to meetingGridWith's for the
// pair (u, v) with the same sampler. It is returned in w.m, and the chunks' grids in
// w.gridV, both valid while the caller holds w.
func (e *Engine) candidateGrid(s, w *v2scratch, sd *sideDraw, v int) []float64 {
	w.r.Reseed(e.sideSeed(v, saltWalkV))
	w.cv = parallel.AppendChunks(w.cv[:0], e.opt.N, parallel.DefaultChunkSize, &w.r)
	w.counts = grow(w.counts, e.opt.Steps+1)
	clear(w.counts)
	w.gridV = grow(w.gridV, len(w.cv))
	for ci, c := range w.cv {
		w.gridV[ci] = e.meetChunk(s, w, sd, v, ci, c, w.counts)
	}
	return e.mergeChunkCounts(w, 1)
}

// mergeChunkCounts sums the nch per-chunk integer meeting-count slots
// of s.counts (Steps+1 entries each) in chunk order into the m̂(k)
// estimate of Eq. 13, returned in s.m.
func (e *Engine) mergeChunkCounts(s *v2scratch, nch int) []float64 {
	stride := e.opt.Steps + 1
	s.m = grow(s.m, stride)
	for k := 0; k < stride; k++ {
		var c int64
		for ci := 0; ci < nch; ci++ {
			c += s.counts[ci*stride+k]
		}
		s.m[k] = float64(c) / float64(e.opt.N)
	}
	return s.m
}
