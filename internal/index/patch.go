package index

import (
	"fmt"

	"usimrank/internal/core"
	"usimrank/internal/diskstore"
	"usimrank/internal/matrix"
	"usimrank/internal/ugraph"
)

// Patch derives the successor generation's index from x after an
// incremental update batch: succ must be the engine ApplyUpdates
// returned, and updates the batch that produced it. The invalidation
// BFS needs succ's graph alone (see below). Only vertices within the
// walk horizon of a
// touched arc head are recomputed (see the package comment for why
// that set is exact); every other row is shared with x, so the patched
// index shares x's backing (the lineage's mapping, see Index) but does
// not keep x itself reachable. Returns the new index and the number of
// vertices whose rows were recomputed.
//
// The result is bit-identical to Build(succ) — the fresh-rebuild
// equivalence the index-lifecycle tests pin — at the cost of a bounded
// BFS plus O(patched vertices) occupancy passes instead of O(|V|).
func Patch(x *Index, succ *core.Engine, updates []ugraph.ArcUpdate) (*Index, int, error) {
	opt := succ.Options()
	switch {
	case succ.Generation() != x.meta.Generation+1:
		return nil, 0, fmt.Errorf("index: patching generation %d index to engine generation %d (want %d)",
			x.meta.Generation, succ.Generation(), x.meta.Generation+1)
	case succ.Graph().NumVertices() != x.meta.Vertices:
		return nil, 0, fmt.Errorf("index: %d vertices in index, %d in successor graph",
			x.meta.Vertices, succ.Graph().NumVertices())
	case opt.N != x.meta.Samples || opt.Seed != x.meta.Seed || opt.Steps != x.meta.Depth:
		return nil, 0, fmt.Errorf("index: successor options (N=%d seed=%d steps=%d) disagree with index (N=%d seed=%d depth=%d)",
			opt.N, opt.Seed, opt.Steps, x.meta.Samples, x.meta.Seed, x.meta.Depth)
	}

	// The touched-head seed set: distinct heads of the staged arcs. This
	// is a superset of the net touched set (a batch whose ops cancel out
	// still lists its heads), which only costs recomputation of rows that
	// come out bit-identical — never correctness.
	seen := make(map[int32]struct{}, len(updates))
	var heads []int32
	for _, up := range updates {
		h := int32(up.V)
		if _, ok := seen[h]; ok {
			continue
		}
		seen[h] = struct{}{}
		heads = append(heads, h)
	}

	depth := x.meta.Depth
	meta := x.meta
	meta.Generation = succ.Generation()
	out := &Index{meta: meta, rows: x.rows, backing: x.backing}
	if len(heads) == 0 {
		return out, 0, nil // empty net batch: every row carries over
	}

	// occ_v[0..depth] instantiates reversed out-rows at walk steps
	// 0..depth−1, so v is affected iff the BFS from the heads over the
	// original-direction union of the old and new adjacency reaches it
	// within depth−1. The new graph alone gives those distances: every
	// deleted arc ends at a head, and a shortest path from the heads
	// never enters one (see ugraph.BoundedDistances).
	dist := ugraph.BoundedDistances(heads, depth-1, succ.Graph())
	rows := make([]matrix.Vec, len(x.rows))
	copy(rows, x.rows)
	var touched []int
	for v := 0; v < meta.Vertices; v++ {
		if dist[v] >= 0 {
			touched = append(touched, v)
		}
	}
	errs := make([]error, len(touched))
	succ.WorkerPool().For(len(touched), func(i int) {
		occ, err := succ.VSideOccupancy(touched[i])
		if err != nil {
			errs[i] = err
			return
		}
		copy(rows[touched[i]*(depth+1):(touched[i]+1)*(depth+1)], occ)
	})
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("index: vertex %d: %w", touched[i], err)
		}
	}
	out.rows = rows
	return out, len(touched), nil
}

// fromParts assembles an Index from raw parts — the test suite's hook
// for constructing deliberately mismatched indexes.
func fromParts(meta diskstore.IndexMeta, rows []matrix.Vec) *Index {
	return &Index{meta: meta, rows: rows}
}
