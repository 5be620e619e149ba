package core

import (
	"slices"
	"strings"
	"testing"
)

// TestStrategyTable pins every row of the strategy table: the names
// that parse to it, its String(), the walk counts trace spans report
// for it against the walks its kernels really draw, and which entry
// points serve it.
func TestStrategyTable(t *testing.T) {
	rows := []struct {
		alg       Algorithm
		name      string
		spellings []string // all accepted, in any case
	}{
		{AlgBaseline, "Baseline", []string{"baseline"}},
		{AlgSampling, "Sampling", []string{"sampling"}},
		{AlgTwoPhase, "SR-TS", []string{"twophase", "two-phase", "srts", "sr-ts"}},
		{AlgSRSP, "SR-SP", []string{"srsp", "sr-sp"}},
		{AlgSamplingV2, "Sampling-v2", []string{"sampling_v2", "sampling-v2", "samplingv2"}},
		{AlgIndexed, "indexed", []string{"indexed"}},
	}
	if len(rows) != len(strategies) {
		t.Fatalf("test covers %d rows, table has %d", len(rows), len(strategies))
	}
	_, unknown := ParseAlgorithm("pagerank")
	if unknown == nil {
		t.Fatal("unknown name parsed")
	}
	var served []Algorithm
	for _, r := range rows {
		if got := r.alg.String(); got != r.name {
			t.Errorf("%d.String() = %q, want %q", int(r.alg), got, r.name)
		}
		for _, s := range append([]string{r.name}, r.spellings...) {
			for _, spelled := range []string{s, strings.ToUpper(s)} {
				if a, err := ParseAlgorithm(spelled); err != nil || a != r.alg {
					t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", spelled, a, err, r.name)
				}
			}
		}
		if !strings.Contains(unknown.Error(), r.spellings[0]) {
			t.Errorf("unknown-name error %q does not list %q", unknown, r.spellings[0])
		}
		if r.alg != AlgIndexed {
			served = append(served, r.alg)
		}
	}
	if got := Algorithms(); !slices.Equal(got, served) {
		t.Errorf("Algorithms() = %v, want %v", got, served)
	}
	if got := Algorithm(42).String(); got != "Algorithm(42)" {
		t.Errorf("out-of-table String() = %q", got)
	}

	// The analytic walk counts the spans carry must equal the walks the
	// kernels draw, with and without a sampled two-phase tail.
	g := testGraph()
	u, v, cands := 3, 17, []int{1, 17, 40}
	for _, opt := range []Options{{N: 300, Seed: 5, Parallelism: 2}, {N: 300, Seed: 5, Parallelism: 2, L: 5}} {
		e := newEngine(t, g, opt)
		x := buildMemIndex(t, e)
		drawn := func(query func() error) int64 {
			t.Helper()
			before := e.KernelStats().Walks
			if err := query(); err != nil {
				t.Fatal(err)
			}
			return int64(e.KernelStats().Walks - before)
		}
		for _, r := range rows {
			var pair, source int64
			if r.alg == AlgIndexed {
				source = drawn(func() error {
					_, err := e.SingleSourceIndexedAgainst(x, u, cands)
					return err
				})
			} else {
				pair = drawn(func() error {
					_, err := e.Compute(r.alg, u, v)
					return err
				})
				source = drawn(func() error {
					_, err := e.SingleSourceAgainst(r.alg, u, cands)
					return err
				})
			}
			if got := e.pairWalks(r.alg); got != pair {
				t.Errorf("L=%d %v: pairWalks = %d, a pair query drew %d", e.Options().L, r.alg, got, pair)
			}
			if got := e.singleSourceWalks(r.alg, len(cands)); got != source {
				t.Errorf("L=%d %v: singleSourceWalks = %d, a source query drew %d", e.Options().L, r.alg, got, source)
			}
		}
	}

	// Only the entry points that take the index serve AlgIndexed; the
	// generic ones name the missing capability.
	e := newEngine(t, g, Options{N: 300, Seed: 5})
	const capability = "needs a source index"
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), capability) {
			t.Errorf("%s(AlgIndexed) error = %v, want one containing %q", what, err, capability)
		}
	}
	_, err := e.Compute(AlgIndexed, u, v)
	refused("Compute", err)
	_, err = e.SingleSource(AlgIndexed, u)
	refused("SingleSource", err)
	for _, res := range Batch(e, AlgIndexed, [][2]int{{u, v}, {v, u}}, 0) {
		refused("Batch", res.Err)
	}
	_, err = e.AdaptiveCompute(AlgIndexed, u, v, AdaptiveOptions{Eps: 0.05})
	refused("AdaptiveCompute", err)
	if out, err := e.SingleSourceIndexedAgainst(buildMemIndex(t, e), u, cands); err != nil || len(out) != len(cands) {
		t.Errorf("SingleSourceIndexedAgainst = %v, %v", out, err)
	}
}
