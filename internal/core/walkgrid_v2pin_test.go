package core

import (
	"context"
	"fmt"
	"testing"

	"usimrank/internal/mc"
	"usimrank/internal/parallel"
)

// The Sampling-v2 kernels and the adaptive rounds as they were before
// the walk driver (walkgrid.go) drew their chunks: each with its own
// chunk layout, chunk loop, meeting count and merge around Plan.Sample.
// They are kept here, serial (the fan-out never changed a bit), as the
// reference the driver is pinned against: the same scores, and the same
// walks and arc instantiations in KernelStats.

// refSamplingV2 is the reference SamplingV2(u, v).
func refSamplingV2(e *Engine, u, v int) float64 {
	plan := e.v2Plan()
	stride := e.opt.Steps + 1
	s := new(v2scratch)
	s.r.Reseed(e.sideSeed(u, saltWalkU))
	s.cu = parallel.AppendChunks(nil, e.opt.N, parallel.DefaultChunkSize, &s.r)
	s.r.Reseed(e.sideSeed(v, saltWalkV))
	s.cv = parallel.AppendChunks(nil, e.opt.N, parallel.DefaultChunkSize, &s.r)
	nch := len(s.cu)
	s.counts = make([]int64, nch*stride)
	for ci := 0; ci < nch; ci++ {
		refV2PairChunk(e, plan, s, u, v, ci)
	}
	return Combine(e.mergeChunkCounts(s, nch), e.opt.C, e.opt.Steps)
}

// refV2PairChunk samples chunk ci of both sides and accumulates its
// meeting counts into the chunk's slot of s.counts.
func refV2PairChunk(e *Engine, plan *mc.Plan, s *v2scratch, u, v, ci int) {
	n := e.opt.Steps
	stride := n + 1
	cu, cv := s.cu[ci], s.cv[ci]
	W := cu.Len()
	s.posU = grow(s.posU, stride*W)
	s.posV = grow(s.posV, stride*W)
	s.r.Reseed(cu.Seed)
	plan.Sample(u, n, W, &s.r, &s.arena, s.posU)
	arcs := s.arena.Instantiated()
	s.r.Reseed(cv.Seed)
	plan.Sample(v, n, W, &s.r, &s.arena, s.posV)
	e.kc.walks.Add(uint64(2 * W))
	e.kc.arcs.Add(uint64(arcs + s.arena.Instantiated()))
	mc.CountMeets(s.posU, s.posV, n, W, s.counts[ci*stride:(ci+1)*stride])
}

// refSamplingV2Source is the reference SamplingV2 single-source kernel:
// the source's chunks sampled into one shared grid, then every
// candidate's chunks counted against it.
func refSamplingV2Source(e *Engine, u int, candidates []int) []float64 {
	plan := e.v2Plan()
	s := new(v2scratch)
	s.r.Reseed(e.sideSeed(u, saltWalkU))
	s.cu = parallel.AppendChunks(nil, e.opt.N, parallel.DefaultChunkSize, &s.r)
	refLayout(s, e.opt.Steps+1)
	for ci := range s.cu {
		refV2SourceChunk(e, plan, s, u, ci)
	}
	out := make([]float64, len(candidates))
	w := new(v2scratch)
	for i, v := range candidates {
		out[i] = refV2Candidate(e, plan, s, w, v)
	}
	return out
}

// refLayout lays s.cu's chunk grids out back to back in s.posU, keeping
// the existing prefix.
func refLayout(s *v2scratch, stride int) {
	s.uoff = grow(s.uoff, len(s.cu)+1)
	total := 0
	for ci, c := range s.cu {
		s.uoff[ci] = int32(total)
		total += stride * c.Len()
	}
	s.uoff[len(s.cu)] = int32(total)
	if cap(s.posU) < total {
		s.posU = append(s.posU[:cap(s.posU)], make([]int32, total-cap(s.posU))...)
	}
	s.posU = s.posU[:total]
}

// refV2SourceChunk samples the source's chunk ci into its block of the
// shared grid.
func refV2SourceChunk(e *Engine, plan *mc.Plan, s *v2scratch, u, ci int) {
	c := s.cu[ci]
	s.r.Reseed(c.Seed)
	plan.Sample(u, e.opt.Steps, c.Len(), &s.r, &s.arena, s.posU[s.uoff[ci]:s.uoff[ci+1]])
	e.kc.walks.Add(uint64(c.Len()))
	e.kc.arcs.Add(uint64(s.arena.Instantiated()))
}

// refV2Candidate scores one candidate against the source grids of s,
// with w as its scratch.
func refV2Candidate(e *Engine, plan *mc.Plan, s, w *v2scratch, v int) float64 {
	n := e.opt.Steps
	stride := n + 1
	w.r.Reseed(e.sideSeed(v, saltWalkV))
	w.cv = parallel.AppendChunks(w.cv[:0], e.opt.N, parallel.DefaultChunkSize, &w.r)
	w.counts = make([]int64, stride)
	arcs := 0
	for ci, c := range w.cv {
		W := c.Len()
		w.posV = grow(w.posV, stride*W)
		w.r.Reseed(c.Seed)
		plan.Sample(v, n, W, &w.r, &w.arena, w.posV)
		arcs += w.arena.Instantiated()
		mc.CountMeets(s.posU[s.uoff[ci]:s.uoff[ci+1]], w.posV, n, W, w.counts)
	}
	e.kc.walks.Add(uint64(e.opt.N))
	e.kc.arcs.Add(uint64(arcs))
	return Combine(e.mergeChunkCounts(w, 1), e.opt.C, n)
}

// refAdaptive is the reference adaptive source query of a sampled
// strategy, with no deadline: per round the source's chunk set is laid
// out again for the round's total, its new chunks are sampled into the
// grown grid, and every unconverged candidate samples its own new
// chunks and folds them into its score moments.
func refAdaptive(e *Engine, alg Algorithm, u int, candidates []int, ao AdaptiveOptions) (AdaptiveResult, error) {
	st, err := strategyFor(alg)
	if err != nil {
		return AdaptiveResult{}, err
	}
	ap, err := e.planAdaptive(st, ao)
	if err != nil || ap.exact() {
		return AdaptiveResult{}, fmt.Errorf("reference needs a sampled plan: %v", err)
	}
	nc := len(candidates)
	prefix := make([]float64, nc)
	for i, v := range candidates {
		if prefix[i], err = e.exactPrefix(u, v, ap.l); err != nil {
			return AdaptiveResult{}, err
		}
	}
	plan := e.v2Plan()
	n := e.opt.Steps
	res := AdaptiveResult{Scores: make([]float64, nc)}
	radii := make([]float64, nc)
	sums := make([]float64, nc)
	sumsqs := make([]float64, nc)
	conv := make([]bool, nc)
	s := new(v2scratch)
	prevCh, prevT := 0, 0
	for _, t := range ap.totals {
		s.r.Reseed(e.sideSeed(u, saltWalkU))
		s.cu = parallel.AppendChunks(s.cu[:0], t, parallel.DefaultChunkSize, &s.r)
		nch := len(s.cu)
		refLayout(s, n+1)
		for ci := prevCh; ci < nch; ci++ {
			refV2SourceChunk(e, plan, s, u, ci)
		}
		for i, v := range candidates {
			if conv[i] {
				continue
			}
			s.r.Reseed(e.sideSeed(v, saltWalkV))
			s.cv = parallel.AppendChunks(s.cv[:0], t, parallel.DefaultChunkSize, &s.r)
			var rs, rq float64 // the round's moments, added to the totals once
			arcs := 0
			for ci := prevCh; ci < nch; ci++ {
				c := s.cv[ci]
				W := c.Len()
				s.posV = grow(s.posV, (n+1)*W)
				s.r.Reseed(c.Seed)
				plan.Sample(v, n, W, &s.r, &s.arena, s.posV)
				arcs += s.arena.Instantiated()
				s.xbuf = grow(s.xbuf, W)
				cs, cq := mc.AccumulateWeighted(s.posU[s.uoff[ci]:s.uoff[ci+1]], s.posV, n, W, ap.coef, s.xbuf)
				rs += cs
				rq += cq
			}
			sums[i] += rs
			sumsqs[i] += rq
			e.kc.walks.Add(uint64(t - prevT))
			e.kc.arcs.Add(uint64(arcs))
		}
		maxR := 0.0
		for i := range candidates {
			if !conv[i] {
				mean, radius := adaptiveInterval(sums[i], sumsqs[i], ap.b, t, ap.deltaR)
				res.Scores[i] = prefix[i] + mean
				radii[i] = radius
				conv[i] = radius <= ap.eps
			}
			maxR = max(maxR, radii[i])
		}
		res.Radius = maxR
		res.Walks = int64(t)
		res.Rounds++
		prevCh, prevT = nch, t
		if maxR <= ap.eps {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// walkArcs is the KernelStats work one query adds: walks drawn and arc
// instantiations.
type walkArcs struct{ walks, arcs uint64 }

// kernelWork runs f and returns the walks and arc instantiations it
// added to e's counters.
func kernelWork(e *Engine, f func()) walkArcs {
	before := e.KernelStats()
	f()
	after := e.KernelStats()
	return walkArcs{after.Walks - before.Walks, after.ArcsInstantiated - before.ArcsInstantiated}
}

// checkDriverPin runs every query shape the driver serves for v2 walks
// — SamplingV2 through Compute, SingleSourceAgainst and Batch, and the
// adaptive pair and source queries of AlgSamplingV2 and AlgTwoPhase —
// from source u against cands on e, and fails t unless each answer has
// the bits the reference gives on ref, and each query adds the same
// walks and arc instantiations to the kernel counters.
func checkDriverPin(t *testing.T, where string, e, ref *Engine, u int, cands []int, ao AdaptiveOptions) {
	t.Helper()
	sameWork := func(shape string, got, want walkArcs) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: %s drew %d walks and %d arcs, the reference %d and %d", where, shape, got.walks, got.arcs, want.walks, want.arcs)
		}
	}
	pairs := make([][2]int, len(cands))
	want := make([]float64, len(cands))
	for i, v := range cands {
		pairs[i] = [2]int{u, v}
		var got float64
		var err error
		gotWork := kernelWork(e, func() { got, err = e.Compute(AlgSamplingV2, u, v) })
		wantWork := kernelWork(ref, func() { want[i] = refSamplingV2(ref, u, v) })
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want[i]) {
			t.Fatalf("%s: SamplingV2(%d,%d) = %v, the reference %v", where, u, v, got, want[i])
		}
		sameWork(fmt.Sprintf("SamplingV2(%d,%d)", u, v), gotWork, wantWork)
	}

	var got []float64
	var err error
	gotWork := kernelWork(e, func() { got, err = e.SingleSourceAgainst(AlgSamplingV2, u, cands) })
	var wantSrc []float64
	wantWork := kernelWork(ref, func() { wantSrc = refSamplingV2Source(ref, u, cands) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if !sameBits(got[i], wantSrc[i]) || !sameBits(got[i], want[i]) {
			t.Fatalf("%s: SingleSourceAgainst s(%d,%d) = %v, the reference %v, its pair kernel %v", where, u, cands[i], got[i], wantSrc[i], want[i])
		}
	}
	sameWork(fmt.Sprintf("SingleSourceAgainst(%d)", u), gotWork, wantWork)

	var batch []PairResult
	batchWork := kernelWork(e, func() { batch = Batch(e, AlgSamplingV2, pairs, 0) })
	for i, r := range batch {
		if r.Err != nil || !sameBits(r.Value, want[i]) {
			t.Fatalf("%s: Batch s(%d,%d) = %v, %v; the reference %v", where, r.U, r.V, r.Value, r.Err, want[i])
		}
	}
	sameWork("Batch", batchWork, wantWork) // one source group

	for _, alg := range []Algorithm{AlgSamplingV2, AlgTwoPhase} {
		if alg.row().depth(e) >= e.opt.Steps {
			continue // fully exact: nothing drawn
		}
		v := cands[len(cands)/2]
		var pair, src AdaptiveResult
		var perr, serr error
		pairWork := kernelWork(e, func() { pair, perr = e.AdaptiveCompute(alg, u, v, ao) })
		srcWork := kernelWork(e, func() {
			src, serr = e.AdaptiveSingleSourceAgainstCtx(context.Background(), alg, u, cands, ao)
		})
		var refPair, refSrc AdaptiveResult
		refPairWork := kernelWork(ref, func() { refPair, err = refAdaptive(ref, alg, u, []int{v}, ao) })
		if err != nil {
			t.Fatal(err)
		}
		refSrcWork := kernelWork(ref, func() { refSrc, err = refAdaptive(ref, alg, u, cands, ao) })
		if err != nil || perr != nil || serr != nil {
			t.Fatal(err, perr, serr)
		}
		refPair.Score, refPair.Scores = refPair.Scores[0], nil
		sameAdaptive(t, fmt.Sprintf("%s: adaptive %v pair (%d,%d)", where, alg, u, v), pair, refPair)
		sameAdaptive(t, fmt.Sprintf("%s: adaptive %v source %d", where, alg, u), src, refSrc)
		sameWork(fmt.Sprintf("adaptive %v pair", alg), pairWork, refPairWork)
		sameWork(fmt.Sprintf("adaptive %v source", alg), srcWork, refSrcWork)
	}
}

// sameAdaptive fails t unless got and want agree bit for bit.
func sameAdaptive(t *testing.T, where string, got, want AdaptiveResult) {
	t.Helper()
	ok := sameBits(got.Score, want.Score) && sameBits(got.Radius, want.Radius) &&
		got.Walks == want.Walks && got.Rounds == want.Rounds &&
		got.Converged == want.Converged && got.Partial == want.Partial &&
		len(got.Scores) == len(want.Scores)
	for i := 0; ok && i < len(got.Scores); i++ {
		ok = sameBits(got.Scores[i], want.Scores[i])
	}
	if !ok {
		t.Fatalf("%s: got %+v, the reference %+v", where, got, want)
	}
}

// TestGridDriverMatchesV2Reference pins the walk driver's v2 draws to
// the reference kernels above, bit for bit, on gridPinGraph: every
// source against every candidate, N at one walk, the chunk boundaries
// and the serving default, several walk lengths, serial and fanned out.
// The adaptive budgets follow N, so a query runs one to three rounds,
// and a round can outgrow the grid the fixed-N queries left.
func TestGridDriverMatchesV2Reference(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		g := gridPinGraph(10, seed)
		all := make([]int, g.NumVertices())
		for i := range all {
			all[i] = i
		}
		for _, N := range []int{1, 127, 128, 129, 1000} {
			ao := AdaptiveOptions{Eps: 0.05, MinWalks: N, MaxWalks: 4 * N}
			for _, steps := range []int{1, 5, 8} {
				ref := newEngine(t, g, Options{N: N, Steps: steps, Seed: seed, Parallelism: 1})
				for _, par := range []int{1, 4} {
					e := newEngine(t, g, Options{N: N, Steps: steps, Seed: seed, Parallelism: par})
					for u := range all {
						checkDriverPin(t, fmt.Sprintf("seed=%d N=%d steps=%d par=%d", seed, N, steps, par), e, ref, u, all, ao)
					}
				}
			}
		}
	}
}

// FuzzGridDriverPin is TestGridDriverMatchesV2Reference on random
// inputs: a small gridPinGraph (dead ends, self-loops, p = 1 arcs), and
// random N, Steps, engine seed, Parallelism, source, candidates and
// adaptive budget.
//
// data[0] picks the graph size and the source; data[1..2] pick N — one
// of the chunk boundaries 1, 127, 128, 129, 255, 256, 257 when data[1]
// is even, else any of 1..600; data[3] picks Steps and Parallelism;
// data[4] the engine seed; data[5] the graph seed; data[6] the adaptive
// ε and the first round's walks. Every further byte is one candidate.
func FuzzGridDriverPin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 || len(data) > 24 {
			return
		}
		n := 2 + int(data[0]%11)
		N := []int{1, 127, 128, 129, 255, 256, 257}[int(data[2])%7]
		if data[1]%2 == 1 {
			N = 1 + (int(data[1])<<8|int(data[2]))%600
		}
		opt := Options{
			N:     N,
			Steps: 1 + int(data[3]%8),
			Seed:  uint64(data[4]) + 1,
		}
		g := gridPinGraph(n, uint64(data[5])+1)
		ref := newEngine(t, g, Options{N: opt.N, Steps: opt.Steps, Seed: opt.Seed, Parallelism: 1})
		opt.Parallelism = 1 + int(data[3]>>3%4)
		e := newEngine(t, g, opt)
		ao := AdaptiveOptions{
			Eps:      0.01 + float64(data[6]%16)*0.01,
			MinWalks: 1 + int(data[6]>>4)*40,
			MaxWalks: 1 + 3*N,
		}
		ao.MaxWalks = max(ao.MaxWalks, ao.MinWalks)
		var cands []int
		for _, b := range data[7:] {
			cands = append(cands, int(b)%n)
		}
		where := fmt.Sprintf("n=%d N=%d steps=%d seed=%d par=%d eps=%v", n, opt.N, opt.Steps, opt.Seed, opt.Parallelism, ao.Eps)
		checkDriverPin(t, where, e, ref, int(data[0]>>4)%n, cands, ao)
	})
}
