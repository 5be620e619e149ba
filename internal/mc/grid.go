package mc

import (
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// SampleGrid draws exactly the walk set Sample(g, src, steps, W, r)
// draws — the same RNG calls in the same order, hence the same walks —
// and writes it in Plan.Sample's grid layout: pos[k*W+i] is walk i's
// vertex at step k, or -1 once the walk is dead. pos must hold
// (steps+1)*W entries.
//
// It is Sample without Sample's allocations. Walks still run one after
// another, each in its own lazily instantiated possible world, but the
// world lives in the arena: a log of at most steps (vertex, out-set)
// entries replaces LazyWorld's map, and the instantiated out-sets share
// one reused buffer. The first time a walk steps out of a vertex its
// out-arcs are flipped in CSR order, exactly as LazyWorld.Out does:
// an arc with p ≥ 1 takes no draw, any other arc one Float64() < p
// draw. The next vertex is then picked with Intn over the out-set, a
// draw even when the out-set has one arc (v2 skips that draw, which is
// why v2 is a separate strategy and this is not). A warmed arena makes
// SampleGrid allocation-free.
//
// The engine's walk driver (core's walkgrid.go) draws with it every
// grid whose side has no Plan: Sampling and SR-TS's sampled tail, which
// count meetings on the grids with CountMeets, and the occupancy rows
// of the index plane (build, patch and the indexed residual sample).
// Sample stays as the reference it is pinned to; no engine code calls
// it.
func SampleGrid(g *ugraph.Graph, src, steps, W int, r *rng.RNG, a *Arena, pos []int32) {
	if len(a.logV) < steps {
		a.logV = make([]int32, steps)
		a.logStart = make([]int32, steps)
		a.logLen = make([]int32, steps)
	}
	pos = pos[:(steps+1)*W]
	for i := 0; i < W; i++ {
		pos[i] = int32(src)
		cur := int32(src)
		a.inst = a.inst[:0] // a fresh world per walk, as Sample resets its LazyWorld
		nlog := 0
		k := 1
		for ; k <= steps; k++ {
			start, length := int32(-1), int32(0)
			for j := 0; j < nlog; j++ {
				if a.logV[j] == cur {
					start, length = a.logStart[j], a.logLen[j]
					break
				}
			}
			if start < 0 {
				start = int32(len(a.inst))
				length = a.flip(g, cur, r)
				a.logV[nlog], a.logStart[nlog], a.logLen[nlog] = cur, start, length
				nlog++
			}
			if length == 0 {
				break // dead end: this world has no arc out of cur
			}
			cur = a.inst[start+int32(r.Intn(int(length)))]
			pos[k*W+i] = cur
		}
		for ; k <= steps; k++ {
			pos[k*W+i] = -1
		}
	}
}

// flip instantiates v's out-arcs in CSR order, appending the surviving
// targets to a.inst, and returns how many survived. The draws for the
// row's uncertain arcs are taken in one bulk call — the same stream
// values, in the same order, as one Float64 per arc — and every target
// is stored unconditionally with the cursor advanced by the outcome, so
// the unpredictable Bernoulli branch never gates a store.
func (a *Arena) flip(g *ugraph.Graph, v int32, r *rng.RNG) int32 {
	dst, probs := g.Out(int(v)), g.OutProbs(int(v))
	unc := 0
	for _, p := range probs {
		if p < 1 {
			unc++
		}
	}
	if cap(a.draws) < unc {
		a.draws = make([]uint64, unc)
	}
	draws := a.draws[:unc]
	r.Uint64s(draws)
	st := len(a.inst)
	need := st + len(dst)
	if cap(a.inst) < need {
		grown := make([]int32, st, max(need, 2*cap(a.inst), 256))
		copy(grown, a.inst)
		a.inst = grown
	}
	inst := a.inst[:need]
	ni, d := st, 0
	for t, p := range probs {
		inst[ni] = dst[t]
		keep := 1
		if p < 1 {
			if !(float64(draws[d]>>11)/(1<<53) < p) {
				keep = 0
			}
			d++
		}
		ni += keep
	}
	a.inst = inst[:ni]
	return int32(ni - st)
}
