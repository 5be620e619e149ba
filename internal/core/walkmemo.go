package core

import (
	"slices"
	"sync"

	"usimrank/internal/cache"
	"usimrank/internal/mc"
	"usimrank/internal/parallel"
)

// The walk memo lets the Eq. 15 single-source kernel (twoPhaseKernel)
// keep the position grids of the vertex-sides it is asked for
// repeatedly, and lets an ApplyUpdates successor reuse them, so a
// subscription's push re-draws only the walk chunks an update reached.
// It serves every side drawn without a plan: Sampling's and SR-TS's
// sides are the same streams, so a side one keeps the other reuses.
//
// Why a kept chunk can be reused. In the Sampling algorithm (Fig. 4) a
// walk's step k+1 is drawn from the reversed out-row of its step-k
// position alone: mc.SampleGrid instantiates that row's arcs (one RNG
// draw per uncertain arc, in CSR order) and picks one survivor. If no
// position at steps 0..Steps−1 of a chunk's grid is a vertex whose
// reversed out-row changed, re-drawing the chunk from its fixed seed
// makes the same RNG calls with the same outcomes and yields the same
// grid. The rows a batch changes are exactly its net-changed heads
// (Delta.NetChangedHeads; a head whose staged arcs net out keeps a
// byte-identical row), so a chunk drawn d batches ago is reusable iff
// none of its walks left a net-changed head of those d batches. The
// unit is the chunk, not the walk: a chunk's walks share one RNG
// stream, so one changed walk shifts the draws of every later walk in
// it.
//
// Every answer is therefore bit-identical to a fresh engine's: a chunk
// is either provably the grid a fresh draw gives, or drawn afresh.

const (
	// memoBudget bounds an engine's kept grids in bytes. It holds 174
	// sides at the serving default (N = 1000, Steps = 5: 24,000 bytes a
	// side), five times a 32-candidate subscription's 33, and keeps the
	// memo a few MiB next to a serving process's resident set.
	memoBudget = 4 << 20
	// memoGenerations is how many update batches an engine remembers
	// the changed rows of, so a push folded over several updates still
	// reuses chunks. Each batch invalidates a share of the chunks (a
	// third after write-push's 16 reweights, BenchmarkTwoPhasePush), so
	// a side kept longer ago than this is mostly re-drawn anyway.
	memoGenerations = 4
)

// sideKey names one vertex-side's walk stream (see sideSeed).
type sideKey struct {
	v    int
	salt uint64
}

// sideGrids is one kept vertex-side: grids[ci] is chunk ci's position
// grid, drawn on generation gen or proven unchanged since. An entry and
// its grids are immutable once stored; entries, engines and successors
// share them rather than copy them.
type sideGrids struct {
	gen   uint64
	grids [][]int32
}

// walkMemo is one engine's memo of vertex-side grids. Admission keeps a
// side's grids only on its second request: the first records the key
// alone in seen, a separate LRU, so recorded keys never evict kept
// grids. Both LRUs hold as many keys as kept grids fit memoBudget.
type walkMemo struct {
	seen *cache.LRU[sideKey, struct{}]
	kept *cache.LRU[sideKey, *sideGrids]

	// changed[j] holds the rows changed by the batch that made the
	// engine's generation minus j: its net-changed heads, sorted. Only the
	// batches since the memo was created are recorded, and every kept
	// entry was drawn after its creation, so an entry at most
	// memoGenerations old always finds its batches here.
	changed [memoGenerations][]int32

	agoOnce sync.Once
	ago     []uint8 // see changedAgo
}

// newWalkMemo returns an empty memo sized for opt, or nil when not even
// one side fits memoBudget.
func newWalkMemo(opt Options) *walkMemo {
	sides := memoBudget / ((opt.Steps + 1) * opt.N * 4)
	if sides < 1 {
		return nil
	}
	return &walkMemo{
		seen: cache.New[sideKey, struct{}](sides),
		kept: cache.New[sideKey, *sideGrids](sides),
	}
}

// carry returns the memo of the successor at generation gen, whose
// batch changed the rows of heads: every recorded key, and every kept side
// young enough to be checked, in recency order. The successor's LRUs
// are its own, so two successors of one engine never see each other's
// entries; the grids themselves are shared.
func (m *walkMemo) carry(gen uint64, heads []int32) *walkMemo {
	if m == nil {
		return nil
	}
	succ := &walkMemo{
		seen: m.seen.Carry(func(sideKey, struct{}) bool { return true }),
		kept: m.kept.Carry(func(_ sideKey, s *sideGrids) bool { return gen-s.gen <= memoGenerations }),
	}
	succ.changed[0] = heads
	copy(succ.changed[1:], m.changed[:])
	return succ
}

// changedAgo returns, per vertex, how many batches back its reversed
// out-row last changed (1 for the batch that made this generation), or
// 0 when none of the remembered batches changed it. It is built once
// per engine, on the first query that checks a chunk, so an update
// only carries the memo.
func (m *walkMemo) changedAgo(vertices int) []uint8 {
	m.agoOnce.Do(func() {
		m.ago = make([]uint8, vertices)
		for j := memoGenerations - 1; j >= 0; j-- { // the newest batch writes last
			for _, h := range m.changed[j] {
				m.ago[h] = uint8(j + 1)
			}
		}
	})
	return m.ago
}

// sideDraw is how one query draws one vertex-side: with which sampler
// (see drawChunk) and what the memo may reuse or keep. The zero value
// draws every chunk with mc.SampleGrid into the caller's scratch and
// keeps nothing. Memo keys do not name the sampler, so only
// walkMemo.plan sets prev or keep, and only for sides without a plan
// (twoPhaseKernel asks the memo for no other): a side drawn with a plan
// never keeps or reuses a grid.
type sideDraw struct {
	plan *mc.Plan   // draw with plan.Sample; nil: mc.SampleGrid
	prev *sideGrids // kept grids whose chunks may be reused
	ago  []uint8    // changedAgo, when prev is older than this generation
	d    uint8      // batches since prev was drawn
	keep bool       // draw into fresh grids, then keep the side
}

// memoFor returns the memo a source query over the given number of
// candidates may use: nil when the engine has none or the query's
// 1 + candidates sides would not fit it, which then draws into pooled
// scratch. The same per-chunk loop runs either way.
func (e *Engine) memoFor(candidates int) *walkMemo {
	if e.memo == nil || 1+candidates > e.memo.kept.Cap() {
		return nil
	}
	return e.memo
}

// plan returns how to draw side k on e: reuse what the memo kept,
// keep the side on its second request, or record the first.
func (m *walkMemo) plan(e *Engine, k sideKey) sideDraw {
	if m == nil {
		return sideDraw{}
	}
	if prev, ok := m.kept.Get(k); ok {
		sd := sideDraw{keep: true}
		if d := e.gen - prev.gen; d <= memoGenerations {
			sd.prev, sd.d = prev, uint8(d)
			if d > 0 {
				sd.ago = m.changedAgo(e.g.NumVertices())
			}
		}
		return sd
	}
	if _, ok := m.seen.Get(k); ok {
		return sideDraw{keep: true}
	}
	m.seen.Add(k, struct{}{})
	return sideDraw{}
}

// store keeps side k's grids (one per chunk, copied into a fresh slice)
// as drawn on e under sd. It keeps nothing unless sd says so, nothing
// from a cancelled pool view (its grids may be partial), and nothing
// when the grids are sd.prev's, already tagged with e's generation.
func (m *walkMemo) store(e *Engine, p *parallel.Pool, k sideKey, sd sideDraw, grids [][]int32) {
	if m == nil || !sd.keep || p.Err() != nil || (sd.prev != nil && sd.prev.gen == e.gen) {
		return
	}
	m.kept.Add(k, &sideGrids{gen: e.gen, grids: slices.Clone(grids)})
}

// reusable reports whether chunk ci of sd.prev is the grid a fresh draw
// gives: none of its walks left, at steps 0..Steps−1 (the first
// leftSteps entries of the grid), a row changed in the last sd.d
// batches. Dead walks (-1) leave nothing.
func (sd *sideDraw) reusable(ci, leftSteps int) bool {
	if sd.prev == nil {
		return false
	}
	if sd.d == 0 {
		return true
	}
	for _, at := range sd.prev.grids[ci][:leftSteps] {
		if at >= 0 && sd.ago[at]-1 < sd.d { // ago 0 wraps to 255: unchanged
			return false
		}
	}
	return true
}
