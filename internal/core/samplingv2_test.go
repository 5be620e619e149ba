package core

import (
	"math"
	"testing"
)

// The generic strategy contracts — bit-identity between pairwise,
// single-source, batch and cluster shapes, Parallelism invariance, the
// concurrent race hammer, ApplyUpdates equivalence, and the
// possible-world oracle pin — cover AlgSamplingV2 through the shared
// allAlgorithms / Algorithms() matrices. This file pins what is
// specific to v2: the allocation-free steady state and its statistical
// agreement with the v1 estimator.

// TestSamplingV2AgreesWithV1 checks the two estimators of the same
// measure against each other: both are within Hoeffding ε of the true
// s(n) with overwhelming probability, so their difference is bounded by
// 2ε even though they consume randomness differently.
func TestSamplingV2AgreesWithV1(t *testing.T) {
	g := smallTestGraph()
	e := newEngine(t, g, Options{N: 4000, Seed: 11})
	const eps = 0.06
	for _, pair := range [][2]int{{0, 1}, {3, 17}, {9, 9}, {40, 7}} {
		v1, err := e.Compute(AlgSampling, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		v2, err := e.Compute(AlgSamplingV2, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v1-v2) > 2*eps {
			t.Fatalf("pair %v: v1 %v vs v2 %v differ by %v > 2ε", pair, v1, v2, math.Abs(v1-v2))
		}
	}
	// The invariant that holds exactly: both streams start at u, so
	// m̂(0)(u,u) = 1 and s(u,u) ≥ (1−c)·m̂(0) = 1−c.
	v2, err := e.Compute(AlgSamplingV2, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v2 < (1-e.Options().C)*1 {
		t.Fatalf("s(5,5) = %v, below the exact (1-c)·m(0) floor", v2)
	}
}

// TestSamplingV2ScoreAllocFree is half of the allocation regression
// gate's contract: on a warmed engine at Parallelism 1, a pairwise
// SamplingV2 score performs zero heap allocations, and so does a
// Sampling score, which runs the same Eq. 15 kernel with mc.SampleGrid
// as the sampler.
func TestSamplingV2ScoreAllocFree(t *testing.T) {
	g := smallTestGraph()
	for _, alg := range []Algorithm{AlgSamplingV2, AlgSampling} {
		e := newEngine(t, g, Options{N: 1024, Seed: 5, Parallelism: 1})
		if _, err := e.Compute(alg, 3, 17); err != nil { // build plan, warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Compute(alg, 3, 17); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warmed %v score allocates %v per op, want 0", alg, allocs)
		}
	}
}

// TestSamplingV2SingleSourceAllocFree is the other half: a warmed
// candidate-restricted single-source sweep through the Into API
// allocates nothing either, for SamplingV2 and for Sampling (whose
// sides the walk memo keeps by the measured runs).
func TestSamplingV2SingleSourceAllocFree(t *testing.T) {
	g := smallTestGraph()
	candidates := []int{1, 4, 9, 33, 47, 60}
	out := make([]float64, len(candidates))
	for _, alg := range []Algorithm{AlgSamplingV2, AlgSampling} {
		e := newEngine(t, g, Options{N: 1024, Seed: 5, Parallelism: 1})
		if err := e.SingleSourceAgainstInto(alg, 3, candidates, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := e.SingleSourceAgainstInto(alg, 3, candidates, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warmed %v single-source allocates %v per op, want 0", alg, allocs)
		}
	}
}

// TestSingleSourceAgainstIntoMatchesAllocating: the Into API must
// return exactly the values of SingleSourceAgainst for every strategy.
func TestSingleSourceAgainstIntoMatchesAllocating(t *testing.T) {
	g := smallTestGraph()
	e := newEngine(t, g, Options{N: 320, Seed: 7})
	candidates := []int{0, 3, 3, 18, 55}
	out := make([]float64, len(candidates))
	for _, alg := range allAlgorithms {
		want, err := e.SingleSourceAgainst(alg, 2, candidates)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SingleSourceAgainstInto(alg, 2, candidates, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("%v candidate %d: Into %v, allocating %v", alg, i, out[i], want[i])
			}
		}
	}
	if err := e.SingleSourceAgainstInto(AlgSamplingV2, 2, candidates, out[:1]); err == nil {
		t.Fatal("mismatched out length accepted")
	}
	if err := e.SingleSourceAgainstInto(AlgBaseline, 2, []int{99999}, out[:1]); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}
}

// TestSamplingV2PlanLazyAndShared: the plan is built once per engine
// generation; clones share it, ApplyUpdates successors rebuild.
func TestSamplingV2PlanLazyAndShared(t *testing.T) {
	g := smallTestGraph()
	e := newEngine(t, g, Options{N: 128, Seed: 3})
	if e.v2plan.Load() != nil {
		t.Fatal("plan built eagerly")
	}
	if _, err := e.Compute(AlgSamplingV2, 0, 1); err != nil {
		t.Fatal(err)
	}
	plan := e.v2plan.Load()
	if plan == nil {
		t.Fatal("plan not built by first query")
	}
	c := e.Clone()
	if c.v2plan.Load() != plan {
		t.Fatal("clone does not share the plan")
	}
	if c.v2pool != e.v2pool {
		t.Fatal("clone does not share the scratch pool")
	}
	succ, _, err := e.ApplyUpdates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if succ.v2plan.Load() != nil {
		t.Fatal("successor inherited a plan for a (potentially) different graph")
	}
	if succ.v2pool != e.v2pool {
		t.Fatal("successor does not share the scratch pool")
	}
	if _, err := succ.Compute(AlgSamplingV2, 0, 1); err != nil {
		t.Fatal(err)
	}
}
