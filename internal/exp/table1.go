package exp

import (
	"fmt"
	"math"

	"usimrank/internal/ugraph"
	"usimrank/internal/walkpr"
)

// Table1Result reproduces the paper's Table I: the WalkPr worked example
// on the Fig. 1(a) graph.
type Table1Result struct {
	// Alphas[v] is α_W(v) for the four transition-source vertices of the
	// example walk, keyed by 0-based vertex.
	Alphas map[int32]float64
	// WalkPr is the walk probability from Eq. 9.
	WalkPr float64
	// EnumWalkPr is the possible-world enumeration oracle (Eq. 8).
	EnumWalkPr float64
	// PaperV1Alpha is the value Table I prints for α_W(v1) (0.64), which
	// disagrees with Eq. 11 and with the enumeration oracle; see the
	// README's "Where this code departs from the paper".
	PaperV1Alpha float64
}

// Table1WalkPr runs the Table I worked example and verifies it against
// exhaustive enumeration.
func Table1WalkPr(cfg Config) (*Table1Result, error) {
	cfg = cfg.norm()
	g := ugraph.PaperFig1()
	walk := ugraph.PaperTableIWalk()

	res := &Table1Result{Alphas: make(map[int32]float64), PaperV1Alpha: 0.64}
	type usageSpec struct {
		v  int32
		ow []int32
		c  int
	}
	for _, u := range []usageSpec{
		{0, []int32{2}, 2},
		{1, []int32{2}, 1},
		{2, []int32{0, 3}, 3},
		{3, []int32{1}, 2},
	} {
		res.Alphas[u.v] = walkpr.Alpha(g, u.v, u.ow, u.c)
	}
	res.WalkPr = walkpr.WalkPr(g, walk)
	oracle, err := walkpr.EnumWalkPr(g, walk)
	if err != nil {
		return nil, err
	}
	res.EnumWalkPr = oracle

	fmt.Fprintf(cfg.Out, "Table I — WalkPr worked example on Fig. 1(a), walk v1,v3,v1,v3,v4,v2,v3,v4,v2\n")
	fmt.Fprintf(cfg.Out, "  %-6s %-12s %-12s\n", "vertex", "alpha (Eq.11)", "paper")
	paper := map[int32]string{0: "0.64 (typo)", 1: "0.54", 2: "0.0375", 3: "0.385"}
	for v := int32(0); v < 4; v++ {
		fmt.Fprintf(cfg.Out, "  v%-5d %-12.6g %-12s\n", v+1, res.Alphas[v], paper[v])
	}
	fmt.Fprintf(cfg.Out, "  walk probability: Eq.9 = %.8f, enumeration oracle = %.8f (diff %.2g)\n",
		res.WalkPr, res.EnumWalkPr, math.Abs(res.WalkPr-res.EnumWalkPr))
	return res, nil
}
