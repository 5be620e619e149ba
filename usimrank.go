// Package usimrank computes SimRank similarities on uncertain graphs,
// implementing "SimRank Computation on Uncertain Graphs" (Zhu, Zou, Li —
// ICDE 2016) under the possible-world model.
//
// An uncertain graph assigns each directed arc an independent existence
// probability. SimRank on such a graph cannot reuse deterministic
// algorithms: the k-step transition matrix W(k) is not the k-th power of
// the one-step matrix W(1), because arc existence is sampled once per
// possible world and therefore couples the transitions of a walk that
// revisits a vertex. This package provides the paper's measure and its
// four computation strategies:
//
//   - Baseline — exact, via walk-probability dynamic programming;
//   - Sampling — Monte Carlo with lazily instantiated possible worlds;
//   - TwoPhase (SR-TS) — exact meeting probabilities for short walks,
//     sampled for long ones, with an order-of-magnitude accuracy gain at
//     comparable cost;
//   - SRSP (SR-SP) — TwoPhase with a bit-vector technique that runs all
//     N sampling processes simultaneously.
//
// The engine serves five query shapes on one shared substrate (LRU row
// cache, SR-SP filter pools, bounded worker pool): pairwise
// Engine.Compute, one-pass single-source Engine.SingleSource (u's rows,
// walks, or propagations computed once and replayed against every
// candidate), top-k via TopKSimilar/TopKPairs under any algorithm,
// matrix sweeps via Engine.SRSPMatrix, and Batch, which groups
// arbitrary pairs by source so shared u-side work is paid once.
//
// All sampling strategies execute on a bounded worker pool controlled by
// Options.Parallelism (default runtime.GOMAXPROCS(0)): Monte Carlo
// samples are fanned out in fixed-size chunks whose RNG streams depend
// only on (seed, vertex, side) in chunk order, and SR-SP filter
// construction, propagations, and matrix sweeps are decomposed into
// disjoint per-vertex tasks. Results are therefore bit-identical for
// every Parallelism value and every query shape — raising the knob or
// switching pairwise loops to kernels changes only wall time.
//
// Quick start:
//
//	b := usimrank.NewBuilder(4)
//	b.AddEdge(0, 1, 0.9)
//	b.AddEdge(1, 2, 0.5)
//	b.AddEdge(2, 3, 0.8)
//	g := b.MustBuild()
//	e, _ := usimrank.New(g, usimrank.Options{})
//	s, _ := e.Baseline(0, 2)
//
// The subpackages under internal/ contain the substrates (walk
// probability machinery, disk-backed TransPr, deterministic and Du-et-al
// baselines, expected Jaccard/Dice/cosine measures, dataset generators,
// the entity-resolution case study, and the experiment harness that
// regenerates every table and figure of the paper).
package usimrank

import (
	"bufio"
	"context"
	"io"
	"os"

	"usimrank/internal/core"
	"usimrank/internal/detsim"
	"usimrank/internal/dusim"
	"usimrank/internal/graph"
	"usimrank/internal/index"
	"usimrank/internal/simmeasure"
	"usimrank/internal/topk"
	"usimrank/internal/ugraph"
)

// Graph is an uncertain directed graph: arcs carry independent existence
// probabilities in (0, 1].
type Graph = ugraph.Graph

// Builder accumulates probabilistic arcs for a Graph.
type Builder = ugraph.Builder

// NewBuilder returns a builder for an uncertain graph with n vertices.
func NewBuilder(n int) *Builder { return ugraph.NewBuilder(n) }

// DeterministicGraph is a plain directed graph (the possible worlds of a
// Graph, and the input of the deterministic baselines).
type DeterministicGraph = graph.Graph

// Options configures an Engine. The zero value selects the paper's
// defaults: c = 0.6, n = 5, N = 1000, l = 1, and a worker pool sized to
// runtime.GOMAXPROCS(0) (the Parallelism field).
type Options = core.Options

// Engine computes SimRank similarities on one uncertain graph. It is
// safe for concurrent use: one engine can serve queries from many
// goroutines, and each query also parallelises its own sampling work
// across the engine's pool. Results never depend on scheduling.
type Engine = core.Engine

// New builds an Engine for g.
func New(g *Graph, opt Options) (*Engine, error) { return core.NewEngine(g, opt) }

// Algorithm selects one of the computation strategies for Compute and
// Batch.
type Algorithm = core.Algorithm

// The four algorithms of the paper's Sec. VI, plus SamplingV2 — the
// allocation-free, cache-aware rewrite of the Monte Carlo kernel (same
// estimator and accuracy bounds as AlgSampling, different randomness
// consumption, roughly 2x faster; see the README's "Kernel v2"
// section) — and AlgIndexed.
const (
	AlgBaseline   = core.AlgBaseline
	AlgSampling   = core.AlgSampling
	AlgTwoPhase   = core.AlgTwoPhase
	AlgSRSP       = core.AlgSRSP
	AlgSamplingV2 = core.AlgSamplingV2
	// AlgIndexed is the source-only strategy over an Index (see the
	// README's "Index serving"): only the entry points that take the
	// index, Engine.SingleSourceIndexed* and
	// Engine.AdaptiveSingleSourceIndexed*, serve it.
	AlgIndexed = core.AlgIndexed
)

// Algorithms lists the strategies that need no index, in canonical order.
func Algorithms() []Algorithm { return core.Algorithms() }

// ParseAlgorithm maps a user-facing algorithm name ("baseline",
// "sampling", "twophase"/"sr-ts", "srsp"/"sr-sp", "sampling_v2",
// "indexed", case-insensitive) to its Algorithm — the one parser
// shared by the CLI and the serving plane.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// PairResult is one outcome of a Batch computation.
type PairResult = core.PairResult

// Batch computes the similarities of many pairs concurrently on one
// shared engine (its row cache and SR-SP filter pools are reused across
// all workers), returning results in input order. Results are identical
// to sequential computation (per-query randomness depends only on the
// seed and the pair). workers < 1 selects the engine's Parallelism
// option.
func Batch(e *Engine, alg Algorithm, pairs [][2]int, workers int) []PairResult {
	return core.Batch(e, alg, pairs, workers)
}

// BatchCtx is Batch with cancellation: once ctx is done, unstarted
// source groups and sample chunks are skipped and ctx.Err() is
// returned instead of partial results. (The pairwise and single-source
// shapes are cancellable through the Engine.ComputeCtx and
// Engine.SingleSourceCtx methods.)
func BatchCtx(ctx context.Context, e *Engine, alg Algorithm, pairs [][2]int, workers int) ([]PairResult, error) {
	return core.BatchCtx(ctx, e, alg, pairs, workers)
}

// Certain embeds a deterministic graph as an uncertain graph whose arcs
// all have probability 1 (Theorem 3: SimRank then coincides with
// deterministic SimRank).
func Certain(d *DeterministicGraph) *Graph { return ugraph.Certain(d) }

// ArcUpdate is one staged arc mutation for the dynamic update plane:
// insert, delete, or reweight one probabilistic arc. Apply a batch with
// Engine.ApplyUpdates, which derives a new-generation engine carrying
// over all warm state the mutation provably cannot have changed.
type ArcUpdate = ugraph.ArcUpdate

// UpdateOp selects the kind of one ArcUpdate.
type UpdateOp = ugraph.UpdateOp

// The three arc mutations.
const (
	OpInsert   = ugraph.OpInsert
	OpDelete   = ugraph.OpDelete
	OpReweight = ugraph.OpReweight
)

// ParseUpdateOp maps a user-facing op name ("insert", "delete",
// "reweight", plus short forms "ins"/"del"/"rw") to its UpdateOp — the
// one parser shared by the CLI and the serving plane.
func ParseUpdateOp(s string) (UpdateOp, error) { return ugraph.ParseUpdateOp(s) }

// UpdateStats reports what one Engine.ApplyUpdates call retained and
// invalidated.
type UpdateStats = core.UpdateStats

// ReadText parses the textual uncertain-graph format
// ("ug <n> <m>" header, then "<u> <v> <p>" lines).
func ReadText(r io.Reader) (*Graph, error) { return ugraph.ReadText(r) }

// WriteText serialises g in the textual format.
func WriteText(w io.Writer, g *Graph) error { return ugraph.WriteText(w, g) }

// ReadBinary parses the binary uncertain-graph format.
func ReadBinary(r io.Reader) (*Graph, error) { return ugraph.ReadBinary(r) }

// LoadGraphFile reads an uncertain graph from disk, auto-detecting the
// format: files starting with the USGR magic parse as binary,
// everything else as text. The shared loader of cmd/usim, cmd/usimd,
// and the serving plane's hot-swap path.
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if magic, err := br.Peek(4); err == nil && string(magic) == "USGR" {
		return ReadBinary(br)
	}
	return ReadText(br)
}

// WriteBinary serialises g in the binary format.
func WriteBinary(w io.Writer, g *Graph) error { return ugraph.WriteBinary(w, g) }

// DeterministicSimRank computes the n-th random-walk SimRank iterate on
// a deterministic graph (the paper's SimRank-II / DSIM baseline).
func DeterministicSimRank(g *DeterministicGraph, u, v int, c float64, n int) float64 {
	return detsim.SinglePair(g, u, v, c, n)
}

// DuSimRank computes SimRank under the W(k) = W(1)^k assumption of Du et
// al. (the paper's SimRank-III baseline). It is exact only when walks of
// length ≤ n cannot revisit a vertex; the package exists so the bias of
// that assumption is measurable.
func DuSimRank(g *Graph, u, v int, c float64, n int) float64 {
	return dusim.SinglePair(g, u, v, c, n)
}

// ExpectedJaccard computes the expected Jaccard similarity of the
// out-neighbourhoods of u and v over possible worlds (the paper's
// Jaccard-I comparison measure, after Zou & Li).
func ExpectedJaccard(g *Graph, u, v int) float64 {
	return simmeasure.ExpectedJaccard(g, u, v)
}

// ExpectedDice computes the expected Dice similarity over possible
// worlds.
func ExpectedDice(g *Graph, u, v int) float64 {
	return simmeasure.ExpectedDice(g, u, v)
}

// ExpectedCosine computes the expected cosine similarity over possible
// worlds (exact DP with a Monte Carlo fallback for very high degrees).
func ExpectedCosine(g *Graph, u, v int) float64 {
	return simmeasure.ExpectedCosine(g, u, v, simmeasure.CosineOptions{})
}

// ErrorBound returns the Theorem 2 truncation bound |s(n) − s| ≤ c^(n+1).
func ErrorBound(c float64, n int) float64 { return core.ErrorBound(c, n) }

// Index is a precomputed reverse-walk index for one graph generation:
// per-vertex, per-step occupancy distributions of the engine's v-side
// walk streams, built offline and probed at query time through
// Engine.SingleSourceIndexed (index probe + residual sample — the first
// query path whose request cost is independent of per-candidate
// sampling). An Index implements core's SourceIndex and is safe for
// concurrent probes; see usimrank/internal/index for the on-disk
// format, generation semantics, and patch rules.
type Index = index.Index

// BuildIndex runs the offline index pass on e's worker pool: every
// vertex's v-side occupancy rows, stamped with e's graph generation,
// seed, sample count and step depth. Deterministic — bit-identical for
// every Parallelism value. Persist with Index.Write, reload with
// LoadIndexFile.
func BuildIndex(e *Engine) (*Index, error) { return index.Build(e) }

// LoadIndexFile memory-maps and fully validates the index file at path.
// Close the index only after every query probing it has finished.
func LoadIndexFile(path string) (*Index, error) { return index.Load(path) }

// PatchIndex derives the successor generation's index after
// Engine.ApplyUpdates without a full rebuild: succ is the engine
// ApplyUpdates returned, or a Clone of it. Only the vertices the
// update reached within the walk horizon (succ.TouchedSources) are
// recomputed; the result is bit-identical to BuildIndex(succ). Returns
// the patched index and the number of recomputed vertices.
//
// oldG and updates are ignored: succ already knows what its update
// reached. They stay in the signature so existing callers keep
// compiling.
func PatchIndex(x *Index, succ *Engine, oldG *Graph, updates []ArcUpdate) (*Index, int, error) {
	return index.Patch(x, succ)
}

// TopKResult is one scored vertex (or pair) of a top-k query.
type TopKResult = topk.Result

// TopKSimilar returns the k vertices most similar to u under the given
// algorithm (the query of the paper's Fig. 14 case study). With
// AlgBaseline, candidates are pruned with the geometric tail bound of
// the exact measure; the approximate algorithms sweep the engine's
// one-pass single-source kernel, doing u's sampling work once for the
// whole query instead of once per candidate.
func TopKSimilar(e *Engine, alg Algorithm, u, k int) ([]TopKResult, error) {
	return topk.SingleSource(e, alg, u, k)
}

// TopKSimilarCtx is TopKSimilar with cancellation (the serving plane's
// per-request deadlines run through it).
func TopKSimilarCtx(ctx context.Context, e *Engine, alg Algorithm, u, k int) ([]TopKResult, error) {
	return topk.SingleSourceCtx(ctx, e, alg, u, k)
}

// TopKPairs returns the k most similar distinct vertex pairs under the
// given algorithm (the query of the paper's Fig. 13 case study).
// Sources are scored concurrently through the single-source kernels on
// the engine's worker pool; the result is identical to a sequential
// pairwise sweep for every Parallelism value.
func TopKPairs(e *Engine, alg Algorithm, k int) ([]TopKResult, error) {
	return topk.AllPairsParallel(e, alg, k)
}

// TopKPairsCtx is TopKPairs with cancellation.
func TopKPairsCtx(ctx context.Context, e *Engine, alg Algorithm, k int) ([]TopKResult, error) {
	return topk.AllPairsParallelCtx(ctx, e, alg, k)
}

// TopKPairsAmongCtx restricts TopKPairsCtx to pairs whose source (the
// smaller endpoint) is in sources. Partitioning the vertex set,
// querying each part, and merging the partial lists under the
// canonical (score desc, U, V) order reproduces TopKPairs bit for bit
// — the decomposition behind the cluster coordinator's scatter-gather
// top-k.
func TopKPairsAmongCtx(ctx context.Context, e *Engine, alg Algorithm, k int, sources []int) ([]TopKResult, error) {
	return topk.AllPairsSubsetCtx(ctx, e, alg, k, sources)
}

// AdaptiveOptions carries a per-request (ε, δ) accuracy target for the
// adaptive query methods (Engine.AdaptiveCompute and friends): sample
// in geometric rounds, stop as soon as the confidence radius reaches
// Eps.
type AdaptiveOptions = core.AdaptiveOptions

// AdaptiveResult reports an adaptive query's estimate together with
// the achieved radius, walk spend, and convergence state.
type AdaptiveResult = core.AdaptiveResult

// AdaptiveDefaultDelta is the failure probability assumed when an
// adaptive request names only eps.
const AdaptiveDefaultDelta = core.AdaptiveDefaultDelta

// TopKSimilarAdaptiveCtx is TopKSimilar with a per-request accuracy
// target: the single-source sweep behind the ranking runs adaptively,
// so every candidate score is within ±res.Radius of its exact
// possible-world value (with probability ≥ 1−δ) and easy queries stop
// sampling early. res.Scores carries the ranked scores' provenance
// (radius, walks, rounds); Partial marks a ranking computed from a
// deadline-truncated sweep.
func TopKSimilarAdaptiveCtx(ctx context.Context, e *Engine, alg Algorithm, u, k int, ao AdaptiveOptions) ([]TopKResult, AdaptiveResult, error) {
	n := e.Graph().NumVertices()
	candidates := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != u {
			candidates = append(candidates, v)
		}
	}
	res, err := e.AdaptiveSingleSourceAgainstCtx(ctx, alg, u, candidates, ao)
	if err != nil {
		return nil, AdaptiveResult{}, err
	}
	list := make([]topk.Result, len(candidates))
	for i, v := range candidates {
		list[i] = topk.Result{U: u, V: v, Score: res.Scores[i]}
	}
	ranked := topk.Merge(k, list)
	res.Scores = nil
	return ranked, res, nil
}

// TopKPairsAdaptiveCtx is TopKPairsAmongCtx (or, with nil sources, the
// full TopKPairs sweep) under a per-request accuracy target. Each
// source's candidate sweep runs adaptively; the aggregate
// AdaptiveResult reports the worst radius, total walks, deepest round
// count, and whether every sweep converged. A deadline that truncates
// one sweep marks the whole ranking Partial and skips the remaining
// sources — the merged list is then a best-effort ranking over the
// sources completed so far.
func TopKPairsAdaptiveCtx(ctx context.Context, e *Engine, alg Algorithm, k int, sources []int, ao AdaptiveOptions) ([]TopKResult, AdaptiveResult, error) {
	n := e.Graph().NumVertices()
	if sources == nil {
		sources = make([]int, n)
		for u := range sources {
			sources[u] = u
		}
	}
	agg := AdaptiveResult{Converged: true}
	lists := make([][]topk.Result, 0, len(sources))
	for _, u := range sources {
		candidates := make([]int, 0, n-u-1)
		for v := u + 1; v < n; v++ {
			candidates = append(candidates, v)
		}
		if len(candidates) == 0 {
			continue
		}
		res, err := e.AdaptiveSingleSourceAgainstCtx(ctx, alg, u, candidates, ao)
		if err != nil {
			return nil, AdaptiveResult{}, err
		}
		list := make([]topk.Result, len(candidates))
		for i, v := range candidates {
			list[i] = topk.Result{U: u, V: v, Score: res.Scores[i]}
		}
		lists = append(lists, topk.Merge(k, list))
		if res.Radius > agg.Radius {
			agg.Radius = res.Radius
		}
		agg.Walks += res.Walks
		if res.Rounds > agg.Rounds {
			agg.Rounds = res.Rounds
		}
		agg.Converged = agg.Converged && res.Converged
		if res.Partial {
			agg.Partial = true
			break
		}
	}
	return topk.Merge(k, lists...), agg, nil
}
