// The v2 sampling kernel: the same Fig. 4 Monte Carlo estimator as
// Sample/MeetingCounts, rebuilt for raw speed. Three ideas:
//
//   - Structure-of-arrays lockstep walks. A chunk's W walks advance
//     together, one step at a time, over a flat (steps+1)×W position
//     grid; the alive frontier (current vertex + walk index) is
//     compacted each step so dead walks cost nothing. The frontier and
//     the grid row are the only hot state, and both stay cache-resident.
//   - A precomputed Plan per graph. Each CSR row is split into a
//     certain prefix (p = 1 arcs, which every possible world contains)
//     and an uncertain suffix whose Bernoulli flips are precomputed as
//     integer thresholds: flip(p) ⇔ draw>>11 < ⌈p·2^53⌉, bit-identical
//     to rng.Bool(p) (draw>>11 is an integer in [0,2^53) and p·2^53 is
//     exact — multiplying by a power of two only shifts the exponent).
//     Fully-certain rows never flip anything, and degree-1 certain rows
//     consume no randomness at all.
//   - Zero steady-state allocation. All scratch (frontier, bulk RNG
//     draws, instantiated out-sets, per-walk visit logs) lives in a
//     reusable Arena that grows to a high-water mark and is then reused
//     query after query.
//
// The possible-world discipline is exactly v1's: the first time a walk
// steps out of a vertex, all its out-arcs are flipped at once and the
// outcome is remembered for that walk's lifetime; revisits only re-roll
// the uniform choice among the instantiated arcs; a walk at a vertex
// with no instantiated out-arc is dead and can never meet. The
// estimator is therefore unbiased for the same measure as v1. Only the
// order in which randomness is consumed differs (lockstep across walks,
// thresholds instead of Float64 compares, draws skipped where the
// outcome is forced), so v2 is a separately pinned strategy variant,
// not a bit-compatible replacement.
package mc

import (
	"math"

	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// Plan is the precomputed per-vertex arc-sampling structure of one
// graph: immutable after BuildPlan, shared freely across goroutines.
type Plan struct {
	off     []int32  // len n+1: CSR row offsets (arc IDs are repartitioned per row, see dst)
	certEnd []int32  // len n: absolute index into dst where row v's certain (p=1) prefix ends
	dst     []int32  // len m: per row, certain targets first, then uncertain targets
	thr     []uint64 // len m: ⌈p·2^53⌉ flip thresholds, parallel to dst (0 on the certain prefix)
	maxUnc  int      // largest uncertain-arc count of any row, sizing the bulk-draw buffer
}

// BuildPlan precomputes the arc-sampling structure of g. The SimRank
// engine builds one per graph generation over the reversed graph (where
// the walks run), and its walk driver (core's walkgrid.go) draws with
// it, through Sample, every grid of a SamplingV2 query (pair and
// single-source) and of an adaptive (ε, δ) round.
func BuildPlan(g *ugraph.Graph) *Plan {
	n := g.NumVertices()
	p := &Plan{
		off:     make([]int32, n+1),
		certEnd: make([]int32, n),
		dst:     make([]int32, g.NumArcs()),
		thr:     make([]uint64, g.NumArcs()),
	}
	for v := 0; v < n; v++ {
		lo, hi := g.ArcRange(v)
		p.off[v], p.off[v+1] = lo, hi
		dsts := g.Out(v)
		probs := g.OutProbs(v)
		w := lo
		for i, pr := range probs {
			if pr >= 1 {
				p.dst[w] = dsts[i]
				w++
			}
		}
		p.certEnd[v] = w
		unc := 0
		for i, pr := range probs {
			if pr < 1 {
				p.dst[w] = dsts[i]
				p.thr[w] = uint64(math.Ceil(pr * (1 << 53)))
				w++
				unc++
			}
		}
		if unc > p.maxUnc {
			p.maxUnc = unc
		}
	}
	return p
}

// NumVertices returns the vertex count of the planned graph.
func (p *Plan) NumVertices() int { return len(p.certEnd) }

// Arena is the reusable scratch of one sampling worker, for Plan.Sample
// and SampleGrid alike. Buffers grow to a high-water mark on first use
// and are reused afterwards; a warmed arena makes both samplers
// allocation-free. An Arena is single-goroutine state — pool one per
// worker.
type Arena struct {
	cur   []int32  // alive frontier: current vertex per alive walk
	wi    []int32  // alive frontier: original walk index, parallel to cur
	draws []uint64 // bulk RNG draws for one row's uncertain flips
	inst  []int32  // instantiated out-sets of this chunk, log entries point in

	// Per-walk visit log for rows with uncertain arcs: walk w's entries
	// live at stride·w + 0..logCnt[w]-1. A walk takes at most `steps`
	// steps, so `steps` entries per walk always suffice.
	logV     []int32 // instantiated vertex
	logStart []int32 // start of its out-set in inst
	logLen   []int32 // length of its out-set
	logCnt   []int32 // entries used per walk
	stride   int     // log stride (the steps value the log is sized for)
}

func (a *Arena) ensure(steps, w, maxUnc int) {
	if cap(a.cur) < w {
		a.cur = make([]int32, w)
		a.wi = make([]int32, w)
		a.logCnt = make([]int32, w)
	}
	a.cur = a.cur[:w]
	a.wi = a.wi[:w]
	a.logCnt = a.logCnt[:w]
	if need := w * steps; cap(a.logV) < need {
		a.logV = make([]int32, need)
		a.logStart = make([]int32, need)
		a.logLen = make([]int32, need)
	}
	if cap(a.draws) < maxUnc {
		a.draws = make([]uint64, maxUnc)
	}
	a.stride = steps
}

// Sample draws W lockstep walks of length steps from src, writing the
// position grid into pos: pos[k*W+i] is walk i's vertex at step k, or
// -1 once the walk is dead. pos must hold (steps+1)*W entries. The walk
// set is a pure function of (plan, src, steps, W, r's state): every
// query shape slicing the same chunk of a vertex's walk stream gets
// identical bits.
func (p *Plan) Sample(src, steps, W int, r *rng.RNG, a *Arena, pos []int32) {
	a.ensure(steps, W, p.maxUnc)
	pos = pos[:(steps+1)*W]
	for i := 0; i < W; i++ {
		pos[i] = int32(src)
		a.cur[i] = int32(src)
		a.wi[i] = int32(i)
		a.logCnt[i] = 0
	}
	for i := W; i < len(pos); i++ {
		pos[i] = -1
	}
	a.inst = a.inst[:0]
	alive := W
	for k := 1; k <= steps && alive > 0; k++ {
		row := pos[k*W : (k+1)*W]
		na := 0
		for s := 0; s < alive; s++ {
			next := p.step(a.cur[s], a.wi[s], r, a)
			if next >= 0 {
				w := a.wi[s]
				row[w] = next
				// In-place stable compaction: na <= s always, so the
				// frontier slots being written are already consumed.
				a.cur[na] = next
				a.wi[na] = w
				na++
			}
		}
		alive = na
	}
}

// step advances one walk out of vertex v, returning the next vertex or
// -1 when the walk dies there.
func (p *Plan) step(v, walk int32, r *rng.RNG, a *Arena) int32 {
	lo, hi := p.off[v], p.off[v+1]
	ce := p.certEnd[v]
	if ce == hi {
		// Fully certain row: the instantiated out-set is the whole row in
		// every possible world — nothing to flip, nothing to remember.
		switch deg := hi - lo; deg {
		case 0:
			return -1
		case 1:
			return p.dst[lo] // forced choice, no draw consumed
		default:
			return p.dst[lo+int32(r.Uint64n(uint64(deg)))]
		}
	}
	// Row with uncertain arcs: find this walk's remembered
	// instantiation, or flip the row once and log it.
	base := int(walk) * a.stride
	cnt := int(a.logCnt[walk])
	start, length := int32(-1), int32(0)
	for j := 0; j < cnt; j++ {
		if a.logV[base+j] == v {
			start, length = a.logStart[base+j], a.logLen[base+j]
			break
		}
	}
	if start < 0 {
		st := len(a.inst)
		// One capacity check for the whole row, then indexed writes: the
		// target is stored unconditionally and the cursor advances by the
		// flip outcome, so the unpredictable Bernoulli branch never gates
		// a store (the compiler lowers `keep` to a flag set, not a jump).
		need := st + int(hi-lo)
		if cap(a.inst) < need {
			grown := make([]int32, st, max(need, 2*cap(a.inst), 1024))
			copy(grown, a.inst)
			a.inst = grown
		}
		inst := a.inst[:need]
		ni := st + copy(inst[st:], p.dst[lo:ce]) // certain prefix always exists
		nUnc := int(hi - ce)
		draws := a.draws[:nUnc]
		r.Uint64s(draws)
		uncDst := p.dst[ce:hi]
		uncThr := p.thr[ce:hi]
		for t, d := range draws {
			inst[ni] = uncDst[t]
			keep := 0
			if d>>11 < uncThr[t] {
				keep = 1
			}
			ni += keep
		}
		a.inst = inst[:ni]
		start, length = int32(st), int32(ni-st)
		a.logV[base+cnt] = v
		a.logStart[base+cnt] = start
		a.logLen[base+cnt] = length
		a.logCnt[walk] = int32(cnt + 1)
	}
	switch length {
	case 0:
		return -1
	case 1:
		return a.inst[start] // forced choice, no draw consumed
	default:
		return a.inst[start+int32(r.Uint64n(uint64(length)))]
	}
}

// CountMeets adds, for k = 0..steps, the number of walk pairs on the
// same vertex at step k into counts[k] — the v2 form of MeetingCounts
// over two position grids of the same chunk. Dead walks (-1) never
// meet. Integer accumulation keeps per-chunk counts mergeable in any
// order, the same determinism argument as v1.
func CountMeets(posU, posV []int32, steps, W int, counts []int64) {
	for k := 0; k <= steps; k++ {
		ru := posU[k*W : (k+1)*W]
		rv := posV[k*W : (k+1)*W : (k+1)*W]
		var c int64
		for i, u := range ru {
			if u >= 0 && u == rv[i] {
				c++
			}
		}
		counts[k] += c
	}
}
