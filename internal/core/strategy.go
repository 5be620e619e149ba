package core

import (
	"fmt"
	"slices"
	"strings"

	"usimrank/internal/parallel"
)

// Algorithm selects one of the SimRank computation strategies.
type Algorithm int

// The four algorithms of Sec. VI, the v2 rewrite of the Monte Carlo
// kernel, and the indexed single-source strategy.
const (
	AlgBaseline Algorithm = iota
	AlgSampling
	AlgTwoPhase
	AlgSRSP
	// AlgSamplingV2 is the Sampling estimator on the v2 kernel
	// (internal/mc Plan/Arena): same measure, same Hoeffding bounds,
	// different randomness-consumption order, so its values differ from
	// AlgSampling's within sampling tolerance and are pinned separately.
	AlgSamplingV2
	// AlgIndexed answers source queries from a SourceIndex plus a
	// residual sample of the source's walks (see indexed.go). Only the
	// entry points that take the index serve it: SingleSourceIndexed*
	// and AdaptiveSingleSourceIndexed*.
	AlgIndexed
)

// strategy is one row of the strategy table. The kernels are method
// expressions, never method values: a method value allocates on every
// call, and the v2 path must stay allocation-free. A nil kernel means
// no generic entry point serves the strategy.
type strategy struct {
	name      string            // String(): metric labels, JSON "alg", flight keys
	spellings []string          // lower-case ParseAlgorithm names; the first is the CLI's
	depth     func(*Engine) int // exact-prefix depth: the deepest step computed exactly
	walks     bool              // the sampled tail is drawn as random walks
	filters   bool              // the sampled tail propagates SR-SP filter bit-vectors
	index     bool              // probes a SourceIndex, which only some entry points take
	pair      func(*Engine, *parallel.Pool, int, int) (float64, error)
	source    func(*Engine, *parallel.Pool, int, []int, []float64, []error) error
}

// strategies declares each algorithm's facts once, in canonical order.
// The paper's strategies differ in how deep the exact prefix goes and
// how the sampled tail is drawn (Sec. VI); every dispatch on Algorithm
// reads its row.
var strategies = [...]strategy{
	AlgBaseline: {name: "Baseline", spellings: []string{"baseline"},
		depth: (*Engine).allSteps,
		pair:  (*Engine).baselineWith, source: (*Engine).baselineKernel},
	AlgSampling: {name: "Sampling", spellings: []string{"sampling"},
		depth: (*Engine).noSteps, walks: true,
		pair: (*Engine).samplingWith, source: (*Engine).samplingKernel},
	AlgTwoPhase: {name: "SR-TS", spellings: []string{"twophase", "two-phase", "srts", "sr-ts"},
		depth: (*Engine).splitDepth, walks: true,
		pair: (*Engine).twoPhaseWith, source: (*Engine).twoPhaseKernel},
	AlgSRSP: {name: "SR-SP", spellings: []string{"srsp", "sr-sp"},
		depth: (*Engine).splitDepth, filters: true,
		pair: (*Engine).srspWith, source: (*Engine).srspKernel},
	AlgSamplingV2: {name: "Sampling-v2", spellings: []string{"sampling_v2", "sampling-v2", "samplingv2"},
		depth: (*Engine).noSteps, walks: true,
		pair: (*Engine).samplingV2With, source: (*Engine).samplingV2Kernel},
	AlgIndexed: {name: "indexed", spellings: []string{"indexed"},
		depth: (*Engine).noSteps, walks: true, index: true},
}

// Exact-prefix depths: every step (Baseline), Eq. 15's split l (the
// two-phase strategies), or none (-1, the fully sampled ones).
func (e *Engine) allSteps() int   { return e.opt.Steps }
func (e *Engine) splitDepth() int { return min(e.opt.L, e.opt.Steps) }
func (e *Engine) noSteps() int    { return -1 }

// unknown is the row of a value outside the table: no name, no
// kernels, nothing exact and nothing sampled.
var unknown = strategy{depth: (*Engine).noSteps}

// row returns a's table row, or unknown for a value outside the table.
func (a Algorithm) row() *strategy {
	if a < 0 || int(a) >= len(strategies) {
		return &unknown
	}
	return &strategies[a]
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if name := a.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists the strategies that need no index, in canonical
// order — the iteration set for pair sweeps, CLIs, and serving planes.
func Algorithms() []Algorithm {
	var out []Algorithm
	for a := range strategies {
		if !strategies[a].index {
			out = append(out, Algorithm(a))
		}
	}
	return out
}

// ParseAlgorithm maps a user-facing algorithm name to its Algorithm,
// case-insensitively: each strategy's CLI spelling ("twophase",
// "sampling_v2", …), its paper name ("sr-ts", "sr-sp") and the other
// aliases its row lists.
func ParseAlgorithm(s string) (Algorithm, error) {
	lower := strings.ToLower(s)
	names := make([]string, 0, len(strategies))
	for a := range strategies {
		if slices.Contains(strategies[a].spellings, lower) {
			return Algorithm(a), nil
		}
		names = append(names, strategies[a].spellings[0])
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want one of %s)", s, strings.Join(names, ", "))
}

// strategyFor returns the row the generic entry points (Compute,
// SingleSource*, Batch, Adaptive*) dispatch through. It refuses a value
// outside the table and a strategy that needs an index.
func strategyFor(alg Algorithm) (*strategy, error) {
	st := alg.row()
	switch {
	case st.index:
		return nil, fmt.Errorf("core: algorithm %s needs a source index; query it through SingleSourceIndexed* or AdaptiveSingleSourceIndexed*", st.name)
	case st.pair == nil:
		return nil, fmt.Errorf("core: unknown algorithm %d", int(alg))
	}
	return st, nil
}
