package core

import (
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
)

// The Sampling algorithm's walk streams on position grids. mc.SampleGrid
// draws exactly mc.Sample's walks — the same RNG calls in the same
// order — into the v2 grid layout (pos[k*W+i], -1 once dead) without
// allocating. Two kernels consume those walks through pooled v2scratch
// grids and stay bit-identical to the map path:
//
//   - the occupancy fold (indexed.go): index build, index patch and the
//     indexed residual sample;
//   - SR-TS's sampled tail (twoPhaseWith, twoPhaseKernel), which counts
//     meetings with mc.CountMeets — MeetingCounts' semantics — and
//     merges the per-chunk integer counts in chunk order, as
//     meetingSampledWith does.
//
// Every chunk comes from drawChunk, so a source's grids are the same
// chunks in the same layout whichever kernel asks. drawChunk also
// serves the walk memo (walkmemo.go): twoPhaseKernel's sides may reuse
// a chunk kept on an earlier query, even on an earlier generation, when
// none of its walks left a row that changed since. The other callers
// pass the zero sideDraw and draw every chunk into scratch.
//
// AlgSampling stays on mc.Sample: its map path is the v1 leg of the
// bench gate's 2× v2-over-v1 bound, and MeetingSampled is the reference
// the grid tail is pinned against.

// layoutSide prepares s for one vertex-side's whole walk stream: its
// chunk set in s.cu, seeded in chunk order exactly as walkChunks seeds
// it, one grid block per chunk in s.posU, and s.gridU cleared — no
// chunk drawn yet — with s.side the zero sideDraw.
func (e *Engine) layoutSide(s *v2scratch, v int, salt uint64) {
	s.r.Reseed(e.sideSeed(v, salt))
	s.cu = parallel.AppendChunks(s.cu[:0], e.opt.N, parallel.DefaultChunkSize, &s.r)
	s.layoutGrids(e.opt.Steps + 1)
	s.gridU = grow(s.gridU, len(s.cu))
	clear(s.gridU)
	s.side = sideDraw{}
}

// sampleSide draws one vertex-side's whole walk stream as sd says (see
// layoutSide and drawChunk), the chunks fanned out over p. A cancelled
// pool skips chunks; s.gridU[ci] stays nil for those.
func (e *Engine) sampleSide(p *parallel.Pool, s *v2scratch, sd sideDraw, v int, salt uint64) {
	e.layoutSide(s, v, salt)
	s.side = sd
	if nch := len(s.cu); p.Workers() <= 1 || nch == 1 {
		for ci := 0; ci < nch && p.Err() == nil; ci++ {
			e.sideChunk(s, s, v, ci)
		}
	} else {
		p.For(nch, func(ci int) {
			w := e.v2pool.Get()
			defer e.v2pool.Put(w)
			e.sideChunk(s, w, v, ci)
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
// w's arena — into dst, or into a fresh grid when sd keeps the side,
// since kept grids are immutable. It counts the walks drawn or reused.
func (e *Engine) drawChunk(w *v2scratch, sd *sideDraw, v, ci int, c parallel.Chunk, dst []int32) []int32 {
	n, W := e.opt.Steps, c.Len()
	if sd.reusable(ci, n*W) {
		e.kc.reused.Add(uint64(W))
		return sd.prev.grids[ci]
	}
	if sd.keep {
		dst = make([]int32, (n+1)*W)
	}
	w.r.Reseed(c.Seed)
	mc.SampleGrid(e.rev, v, n, W, &w.r, &w.arena, dst)
	e.kc.walks.Add(uint64(W))
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

// meetingGridWith is meetingSampledWith on grids, with a bit-identical
// estimate: chunk ci samples u's ci-th chunk into its block of s.posU
// (sideChunk) and v's ci-th chunk into scratch, and counts their
// meetings into its own slot of s.counts. The chunks fan out over p.
// The estimate is returned in s.m, valid while the caller holds s.
func (e *Engine) meetingGridWith(p *parallel.Pool, s *v2scratch, u, v int) []float64 {
	e.layoutSide(s, u, saltWalkU)
	s.r.Reseed(e.sideSeed(v, saltWalkV))
	s.cv = parallel.AppendChunks(s.cv[:0], e.opt.N, parallel.DefaultChunkSize, &s.r)
	nch := len(s.cu)
	s.counts = grow(s.counts, nch*(e.opt.Steps+1))
	clearInt64(s.counts)
	if p.Workers() <= 1 || nch == 1 {
		for ci := 0; ci < nch && p.Err() == nil; ci++ {
			e.pairGridChunk(s, s, u, v, ci)
		}
	} else {
		p.For(nch, func(ci int) {
			w := e.v2pool.Get()
			defer e.v2pool.Put(w)
			e.pairGridChunk(s, w, u, v, ci)
		})
	}
	return e.mergeChunkCounts(s, nch)
}

// pairGridChunk is chunk ci of meetingGridWith, sampled with w's
// scratch (w == s on the serial path).
func (e *Engine) pairGridChunk(s, w *v2scratch, u, v, ci int) {
	stride := e.opt.Steps + 1
	e.sideChunk(s, w, u, ci)
	e.meetChunk(s, w, &sideDraw{}, v, ci, s.cv[ci], s.counts[ci*stride:(ci+1)*stride])
}

// candidateGrid is candidateMeeting on grids: v's v-side chunks are
// drawn as sd says, one after another with w's scratch, and counted
// against the source grids s holds, so the estimate is bit-identical to
// MeetingSampled(u, v). It is returned in w.m, and the chunks' grids in
// w.gridV, both valid while the caller holds w.
func (e *Engine) candidateGrid(s, w *v2scratch, sd *sideDraw, v int) []float64 {
	w.r.Reseed(e.sideSeed(v, saltWalkV))
	w.cv = parallel.AppendChunks(w.cv[:0], e.opt.N, parallel.DefaultChunkSize, &w.r)
	w.counts = grow(w.counts, e.opt.Steps+1)
	clearInt64(w.counts)
	w.gridV = grow(w.gridV, len(w.cv))
	for ci, c := range w.cv {
		w.gridV[ci] = e.meetChunk(s, w, sd, v, ci, c, w.counts)
	}
	return e.mergeChunkCounts(w, 1)
}
