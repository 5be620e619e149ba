package index

import (
	"fmt"
	"io"

	"usimrank/internal/core"
	"usimrank/internal/diskstore"
	"usimrank/internal/matrix"
)

// Index is a loaded (or freshly built) reverse-walk index for one graph
// generation. It implements core.SourceIndex; rows are immutable and
// safe for concurrent probes. An Index loaded from disk views the
// file's memory mapping, and so does every index patched from it: a
// lineage (one Load or Build and the chain of Patch results after it)
// shares one mapping. Close it only after every query probing any index
// of the lineage has finished (a serving plane should hold it for the
// lifetime of the last engine handle serving the lineage).
type Index struct {
	meta diskstore.IndexMeta
	rows []matrix.Vec // row-major: occ_v[k] at v·(Depth+1)+k

	// backing is the lineage's root mapping — the mmap of the index
	// Load returned — or nil for a lineage that started with Build.
	// Patched rows are fresh heap slices and untouched rows view either
	// that mapping or the heap, so a patched index needs its
	// predecessor's backing, never the predecessor itself.
	backing io.Closer
}

// Generation returns the engine graph generation the rows were computed
// at.
func (x *Index) Generation() uint64 { return x.meta.Generation }

// NumVertices returns the vertex count of the indexed graph.
func (x *Index) NumVertices() int { return x.meta.Vertices }

// Depth returns the deepest indexed step; rows cover k = 0..Depth.
func (x *Index) Depth() int { return x.meta.Depth }

// Samples returns the walk count N the rows were estimated from.
func (x *Index) Samples() int { return x.meta.Samples }

// Seed returns the engine seed the v-side walk streams derived from.
func (x *Index) Seed() uint64 { return x.meta.Seed }

// Row returns occ_v[k]. v must be in [0, NumVertices()) and k in
// [0, Depth()] — the core.SourceIndex contract; the loader's up-front
// validation is what makes the unchecked access safe.
func (x *Index) Row(v, k int) matrix.Vec {
	return x.rows[v*(x.meta.Depth+1)+k]
}

// Close releases the memory mapping the index's lineage shares (a
// no-op for a lineage that started with Build). Closing any index of a
// loaded lineage unmaps the rows of all of them, so no index of the
// lineage may be probed afterwards; closing more than one is harmless.
func (x *Index) Close() error {
	if x.backing == nil {
		return nil
	}
	b := x.backing
	x.backing = nil
	x.rows = nil
	return b.Close()
}

// Write persists the index at path in the USIX format.
func (x *Index) Write(path string) error {
	return diskstore.WriteIndexFile(path, x.meta, x.rows)
}

// Load memory-maps and fully validates the USIX file at path.
func Load(path string) (*Index, error) {
	f, err := diskstore.OpenIndexFile(path)
	if err != nil {
		return nil, err
	}
	return &Index{meta: f.Meta, rows: f.Rows, backing: f}, nil
}

// Build runs the offline pass: every vertex's v-side occupancy rows,
// fanned out over the engine's worker pool, stamped with the engine's
// graph generation, seed, sample count and step depth. The result is
// deterministic — bit-identical for every Parallelism value — and
// round-trips exactly through Write and Load.
func Build(e *core.Engine) (*Index, error) {
	opt := e.Options()
	n := e.Graph().NumVertices()
	meta := diskstore.IndexMeta{
		Generation: e.Generation(),
		Vertices:   n,
		Depth:      opt.Steps,
		Samples:    opt.N,
		Seed:       opt.Seed,
	}
	rows := make([]matrix.Vec, n*(meta.Depth+1))
	errs := make([]error, n)
	e.WorkerPool().For(n, func(v int) {
		occ, err := e.VSideOccupancy(v)
		if err != nil {
			errs[v] = err
			return
		}
		copy(rows[v*(meta.Depth+1):(v+1)*(meta.Depth+1)], occ)
	})
	for v, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("index: vertex %d: %w", v, err)
		}
	}
	return &Index{meta: meta, rows: rows}, nil
}
