// Package index implements the offline reverse-walk index plane: the
// per-vertex meeting-probability decomposition that turns single-source
// queries into index probes plus a small residual sample (the shape of
// PRSim and the exact single-source SimRank line of work, applied to
// the paper's uncertain-graph sampling engine).
//
// # What is stored
//
// For every vertex v of one graph generation and every step k = 0..n
// (n = Options.Steps), the index holds the empirical occupancy
// distribution of v's deterministic v-side walk stream on the reversed
// graph:
//
//	occ_v[k](w) = #{ walks of v at vertex w after k steps } / N
//
// These are exactly the vectors core.Engine.VSideOccupancy computes;
// the builder (Build) fans that call out over the engine's worker pool,
// one task per vertex, so a build is deterministic and bit-identical
// for every Parallelism setting.
//
// # Cost of a row
//
// Build, Patch and the residual sample of an indexed query all run one
// kernel per vertex: N Sampling walks (Fig. 4) of Steps steps, folded
// into Steps+1 sparse rows. Its cost is the walks' random draws — the
// first time a walk steps out of a vertex it flips every out-arc of
// that vertex, one draw per uncertain arc, then one draw to pick the
// next vertex — plus an O(N·Steps) integer fold. The walks run
// through mc.SampleGrid with pooled scratch, so a vertex allocates only
// its returned rows (two slices per non-empty step). BenchmarkIndexBuild
// and BenchmarkIndexPatch report this cost per nominal walk-step
// (N·Steps per computed vertex).
//
// The rows are bit-identical to those of the reference kernel the core
// tests keep — mc.Sample's walks, counted per chunk into maps and
// merged as total += float64(count)·(1/N) over the chunks in order —
// because mc.SampleGrid makes mc.Sample's RNG calls in the same order,
// so it draws the same walks, and the fold performs the same float
// operations in the same order. Summing the integer counts across
// chunks first would round differently. The engine samples a source's
// walks for SR-TS's sampled tail through the same code, so a vertex's
// u-side grids are the same whether a twophase query or an indexed
// residual asks for them.
//
// At query time the engine samples only the source's u-side walks and
// evaluates m̂(k)(u, v) = ⟨occ_u[k], occ_v[k]⟩ per candidate — see
// core.SingleSourceIndexed for the estimator's accuracy contract
// (unbiased, variance at most the Sampling algorithm's at equal N,
// pinned against the possible-world oracle within Hoeffding tolerance).
//
// # On-disk format
//
// An index persists through internal/diskstore's USIX format: a 64-byte
// little-endian header (magic, format version, graph generation, vertex
// count, depth, walk count N, engine seed), an offset table, and one
// sparse row per (vertex, step) pair — f64 probabilities followed by
// sorted i32 vertex ids, every section 8-byte aligned. Load memory-maps
// the file and validates it completely up front, then serves rows as
// zero-copy views into the mapping; arbitrary corrupt bytes error
// cleanly (the FuzzIndexFile contract) and can never panic a probe.
//
// # Generation discipline and patching
//
// The header carries the engine graph generation the rows were computed
// at. core.Engine.CheckIndex refuses an index whose generation, vertex
// count, sample count, seed, or depth disagrees with the engine, so a
// serving plane can never answer from rows that no longer describe the
// resident graph.
//
// After an incremental update batch (core.Engine.ApplyUpdates), Patch
// derives the successor generation's index without a full rebuild,
// reusing the invalidation argument of the update plane's row-cache
// carry-over: occ_v[0..n] is computed from walks of length ≤ n out of v
// on the reversed graph, and such walks instantiate only the reversed
// out-rows of vertices within n−1 steps of v. A reversed out-row
// changed iff its vertex is a touched arc head, so v's rows change only
// if v reaches a touched head within n−1 reversed steps — equivalently,
// iff the bounded BFS from the heads over the original-direction
// adjacency (old and new graphs both, so deleted paths still count)
// reaches v. Patch recomputes exactly those vertices' rows on the
// successor engine and shares every other row with the predecessor;
// because walk streams depend only on (seed, vertex, side), the result
// is bit-identical to a fresh Build on the successor.
//
// # Lineages share one mapping
//
// A lineage is one Load (or Build) and the chain of Patch results
// derived from it. The untouched rows of a patched index view the same
// memory as its predecessor's, so every index of a loaded lineage views
// the one file mapping Load made, and holds that mapping — not its
// predecessor, whose rows table it would otherwise keep reachable for
// as long as the lineage lives. Closing any index of the lineage
// unmaps the rows of all of them: close once, after the last query
// probing any of them has finished.
package index
