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
// Both draw a vertex-side's chunks through layoutSide and sideChunk, so
// a source's grids are the same chunks in the same layout whichever
// kernel asks.
//
// AlgSampling stays on mc.Sample: its map path is the v1 leg of the
// bench gate's 2× v2-over-v1 bound, and MeetingSampled is the reference
// the grid tail is pinned against.

// layoutSide prepares s for one vertex-side's whole walk stream: its
// chunk set in s.cu, seeded in chunk order exactly as walkChunks seeds
// it, and one grid per chunk in s.posU, none sampled yet.
func (e *Engine) layoutSide(s *v2scratch, v int, salt uint64) {
	s.r.Reseed(e.sideSeed(v, salt))
	s.cu = parallel.AppendChunks(s.cu[:0], e.opt.N, parallel.DefaultChunkSize, &s.r)
	s.layoutGrids(e.opt.Steps + 1)
	s.sampled = grow(s.sampled, len(s.cu))
	clear(s.sampled)
}

// sampleSide draws one vertex-side's whole walk stream into s's grids
// (see layoutSide), the chunks fanned out over p. A cancelled pool
// skips chunks; s.sampled records which ran.
func (e *Engine) sampleSide(p *parallel.Pool, s *v2scratch, v int, salt uint64) {
	e.layoutSide(s, v, salt)
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

// sideChunk samples chunk ci of s's walk stream into its block of the
// shared grid s.posU, using w's arena (w == s on the serial path).
func (e *Engine) sideChunk(s, w *v2scratch, v, ci int) {
	c := s.cu[ci]
	w.r.Reseed(c.Seed)
	mc.SampleGrid(e.rev, v, e.opt.Steps, c.Len(), &w.r, &w.arena, s.posU[s.uoff[ci]:s.uoff[ci+1]])
	e.kc.walks.Add(uint64(c.Len()))
	s.sampled[ci] = true
}

// meetChunk draws c, the ci-th chunk of v's v-side stream, into w.posV
// and adds its meetings with the ci-th u-side grid of s into counts
// (Steps+1 entries). The caller counts the walks.
func (e *Engine) meetChunk(s, w *v2scratch, v, ci int, c parallel.Chunk, counts []int64) {
	n, W := e.opt.Steps, c.Len()
	w.posV = grow(w.posV, (n+1)*W)
	w.r.Reseed(c.Seed)
	mc.SampleGrid(e.rev, v, n, W, &w.r, &w.arena, w.posV)
	mc.CountMeets(s.posU[s.uoff[ci]:s.uoff[ci+1]], w.posV, n, W, counts)
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
	c := s.cv[ci]
	e.meetChunk(s, w, v, ci, c, s.counts[ci*stride:(ci+1)*stride])
	e.kc.walks.Add(uint64(c.Len()))
}

// candidateGrid is candidateMeeting on grids: v's v-side chunks are
// drawn one after another into w and counted against the source grids
// s holds, so the estimate is bit-identical to MeetingSampled(u, v). It
// is returned in w.m, valid while the caller holds w.
func (e *Engine) candidateGrid(s, w *v2scratch, v int) []float64 {
	w.r.Reseed(e.sideSeed(v, saltWalkV))
	w.cv = parallel.AppendChunks(w.cv[:0], e.opt.N, parallel.DefaultChunkSize, &w.r)
	w.counts = grow(w.counts, e.opt.Steps+1)
	clearInt64(w.counts)
	for ci, c := range w.cv {
		e.meetChunk(s, w, v, ci, c, w.counts)
	}
	e.kc.walks.Add(uint64(e.opt.N)) // the chunks partition exactly N walks
	return e.mergeChunkCounts(w, 1)
}
