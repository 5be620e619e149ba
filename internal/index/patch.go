package index

import (
	"fmt"

	"usimrank/internal/core"
	"usimrank/internal/diskstore"
	"usimrank/internal/matrix"
)

// Patch derives the successor generation's index from x after an
// incremental update batch: succ must be the engine ApplyUpdates
// returned, or a Clone of it. Only the vertices succ.TouchedSources
// lists — the sources the update's invalidation BFS reached within the
// walk horizon (see the package comment for why that set is exact) —
// are recomputed; every other row is shared with x, so the patched
// index shares x's backing (the lineage's mapping, see Index) but does
// not keep x itself reachable. Returns the new index and the number of
// vertices whose rows were recomputed.
//
// The result is bit-identical to Build(succ) — the fresh-rebuild
// equivalence the index-lifecycle tests pin — at the cost of
// O(patched vertices) occupancy passes instead of O(|V|).
func Patch(x *Index, succ *core.Engine) (*Index, int, error) {
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

	depth := x.meta.Depth
	meta := x.meta
	meta.Generation = succ.Generation()
	out := &Index{meta: meta, rows: x.rows, backing: x.backing}
	touched := succ.TouchedSources()
	if len(touched) == 0 {
		return out, 0, nil // the batch changed no row: every row carries over
	}
	rows := make([]matrix.Vec, len(x.rows))
	copy(rows, x.rows)
	errs := make([]error, len(touched))
	succ.WorkerPool().For(len(touched), func(i int) {
		v := int(touched[i])
		occ, err := succ.VSideOccupancy(v)
		if err != nil {
			errs[i] = err
			return
		}
		copy(rows[v*(depth+1):(v+1)*(depth+1)], occ)
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
