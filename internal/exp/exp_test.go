package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"usimrank/internal/gen"
)

func tinyCfg(buf *bytes.Buffer) Config {
	return Config{Scale: gen.Tiny, Seed: 1, Out: buf}
}

func TestTable1WalkPr(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table1WalkPr(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// The three uncontested Table I values.
	if math.Abs(res.Alphas[1]-0.54) > 1e-9 || math.Abs(res.Alphas[2]-0.0375) > 1e-9 ||
		math.Abs(res.Alphas[3]-0.385) > 1e-9 {
		t.Fatalf("alphas wrong: %+v", res.Alphas)
	}
	// Eq. 11 agrees with the enumeration oracle.
	if math.Abs(res.WalkPr-res.EnumWalkPr) > 1e-9 {
		t.Fatalf("WalkPr %v vs oracle %v", res.WalkPr, res.EnumWalkPr)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("no output printed")
	}
}

func TestTable2Datasets(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2Datasets(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d datasets", len(rows))
	}
	for _, r := range rows {
		if r.Vertices == 0 || r.Arcs == 0 {
			t.Fatalf("degenerate dataset %+v", r)
		}
	}
}

func TestFig7Table3Bias(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig7Table3Bias(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 { // 2 datasets × 4 measures
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Avg < 0 || r.Max < r.Avg || r.Min > r.Avg {
			t.Fatalf("inconsistent stats %+v", r)
		}
		if r.Max > 1.0001 {
			t.Fatalf("bias above 1 after normalisation: %+v", r)
		}
	}
	// Fig. 7 series: SimRank-I must be sorted descending.
	for ds, series := range res.Series {
		ref := series[MeasureSimRankI]
		for i := 1; i < len(ref); i++ {
			if ref[i] > ref[i-1]+1e-12 {
				t.Fatalf("%s: SimRank-I series not sorted", ds)
			}
		}
	}
}

func TestFig8Convergence(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig8Convergence(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 4 {
		t.Fatalf("got %d curves", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Avg) < 3 {
			t.Fatalf("%s: curve too short (%d points)", c.Dataset, len(c.Avg))
		}
		// Convergence: the last two iterates are closer than the first two.
		n := len(c.Avg)
		d0 := math.Abs(c.Avg[1] - c.Avg[0])
		dn := math.Abs(c.Avg[n-1] - c.Avg[n-2])
		if dn > d0+1e-12 {
			t.Fatalf("%s: not converging (first diff %v, last diff %v)", c.Dataset, d0, dn)
		}
		for i, v := range c.Avg {
			if v < 0 || v > c.Max[i]+1e-12 || c.Max[i] > 1.0001 {
				t.Fatalf("%s: inconsistent avg/max at %d", c.Dataset, i)
			}
		}
	}
}

func TestFig9Efficiency(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig9Efficiency(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets × 8 algorithm variants.
	if len(res.Timings) != 32 {
		t.Fatalf("got %d timings", len(res.Timings))
	}
	for _, tm := range res.Timings {
		if !tm.DNF && tm.Mean <= 0 {
			t.Fatalf("non-positive timing %+v", tm)
		}
	}
}

func TestFig10Accuracy(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig10Accuracy(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 28 { // 4 datasets × 7 approximate variants
		t.Fatalf("got %d errors", len(res.Errors))
	}
	byAlgo := map[string][]float64{}
	for _, e := range res.Errors {
		if e.RelErr < 0 {
			t.Fatalf("negative error %+v", e)
		}
		byAlgo[e.Algo] = append(byAlgo[e.Algo], e.RelErr)
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	// The paper's headline accuracy claim: the two-phase algorithms beat
	// pure sampling on average.
	if mean(byAlgo["SR-TS(l=2)"]) >= mean(byAlgo["Sampling"]) {
		t.Fatalf("SR-TS(l=2) (%v) not more accurate than Sampling (%v)",
			mean(byAlgo["SR-TS(l=2)"]), mean(byAlgo["Sampling"]))
	}
}

func TestFig11NSweep(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig11NSweep(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// Error at the largest N should not exceed error at the smallest N
	// (sampling noise shrinks with N).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.TSRelErr > first.TSRelErr*1.5+0.01 {
		t.Fatalf("TS error grew with N: %v → %v", first.TSRelErr, last.TSRelErr)
	}
}

func TestFig12Scalability(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig12Scalability(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Edges <= res.Points[i-1].Edges {
			t.Fatal("edge counts not increasing")
		}
	}
}

func TestFig13Proteins(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig13Proteins(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopUSIM) != 20 || len(res.TopDSIM) != 20 {
		t.Fatalf("top lists wrong: %d / %d", len(res.TopUSIM), len(res.TopDSIM))
	}
	if len(res.HubTop5) != 5 {
		t.Fatalf("hub top-5 has %d entries", len(res.HubTop5))
	}
	if len(res.HubTop5SRSP) != 5 {
		t.Fatalf("SR-SP hub top-5 has %d entries", len(res.HubTop5SRSP))
	}
	// The paper's claim: accounting for uncertainty finds at least as
	// many co-complex pairs as ignoring it.
	if res.CoComplexUSIM < res.CoComplexDSIM {
		t.Fatalf("USIM %d/20 below DSIM %d/20", res.CoComplexUSIM, res.CoComplexDSIM)
	}
	// And the USIM list should be dominated by true co-complex pairs.
	if res.CoComplexUSIM < 12 {
		t.Fatalf("USIM found only %d/20 co-complex pairs", res.CoComplexUSIM)
	}
}

func TestFig15ERTime(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig15ERTime(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points", len(res.Points))
	}
	for _, pt := range res.Points {
		for _, alg := range []string{"EIF", "DISTINCT", "SimER", "SimDER"} {
			if pt.Times[alg] <= 0 {
				t.Fatalf("missing timing for %s", alg)
			}
		}
	}
}

func TestTable5ERQuality(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table5ERQuality(tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8*4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Fatalf("bad PRF row %+v", r)
		}
	}
	// The paper's Table V shape: SimER has the best average F1.
	simer := res.Averages["SimER"][2]
	for _, other := range []string{"EIF", "DISTINCT"} {
		if simer < res.Averages[other][2]-0.05 {
			t.Fatalf("SimER F1 %.3f clearly below %s %.3f", simer, other, res.Averages[other][2])
		}
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)

	sf, err := AblationSharedFilters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Independent pools must be (at least) as accurate as the shared pool.
	if sf.Values["mae_independent"] > sf.Values["mae_shared"]+0.005 {
		t.Fatalf("independent pools worse than shared: %+v", sf.Values)
	}

	cp, err := AblationChoicePolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Re-rolled choices are the faithful sampler on a loopy graph.
	if cp.Values["mad_rerolled"] > cp.Values["mad_fixed_choice"]+0.005 {
		t.Fatalf("re-rolled worse than fixed: %+v", cp.Values)
	}
	// And the fixed-choice policy must show measurable bias here.
	if cp.Values["mad_fixed_choice"] < cp.Values["mad_rerolled"] {
		t.Logf("fixed-choice bias %.5f vs re-rolled %.5f",
			cp.Values["mad_fixed_choice"], cp.Values["mad_rerolled"])
	}
	// Both deviations keep the bits they had when the re-rolled walks
	// ran on ugraph.LazyWorld maps: mc.SampleGrid draws the same walks,
	// and each occupancy cell adds the same 1/N as often.
	for name, bits := range map[string]uint64{
		"mad_rerolled":     0x3f64e0d2260fe247,
		"mad_fixed_choice": 0x3fc217e0ae8e90f0,
	} {
		if got := math.Float64bits(cp.Values[name]); got != bits {
			t.Fatalf("%s = %v (%#x), want the pinned %v (%#x)", name, cp.Values[name], got, math.Float64frombits(bits), bits)
		}
	}

	sm, err := AblationStateMerge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Values["disk_tuples_total"] <= 0 {
		t.Fatalf("no tuples recorded: %+v", sm.Values)
	}

	gi, err := AblationGirth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The product fast path must win on a high-girth graph.
	if gi.Values["product_micros"] > gi.Values["general_micros"] {
		t.Fatalf("fast path slower than general: %+v", gi.Values)
	}

	ls, err := AblationLSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corollary 1: error at l=4 must not exceed error at l=0.
	if ls.Values["relerr_l4"] > ls.Values["relerr_l0"]+0.01 {
		t.Fatalf("l-sweep error not improving: %+v", ls.Values)
	}

	dt, err := AblationDiskTransPr(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Values["block_writes"] <= 0 {
		t.Fatalf("no I/O recorded: %+v", dt.Values)
	}
}
