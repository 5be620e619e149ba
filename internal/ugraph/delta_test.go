package ugraph

import (
	"math"
	"slices"
	"testing"

	"usimrank/internal/rng"
)

// rebuildWithUpdates applies updates the slow, obviously-correct way:
// collect every arc of g into a map, mutate the map, rebuild with a
// Builder.
func rebuildWithUpdates(t *testing.T, g *Graph, ups []ArcUpdate) *Graph {
	t.Helper()
	arcs := make(map[[2]int]float64)
	for u := 0; u < g.NumVertices(); u++ {
		probs := g.OutProbs(u)
		for i, v := range g.Out(u) {
			arcs[[2]int{u, int(v)}] = probs[i]
		}
	}
	for _, up := range ups {
		key := [2]int{up.U, up.V}
		switch up.Op {
		case OpInsert, OpReweight:
			arcs[key] = up.P
		case OpDelete:
			delete(arcs, key)
		}
	}
	b := NewBuilder(g.NumVertices())
	for key, p := range arcs {
		b.AddArc(key[0], key[1], p)
	}
	return b.MustBuild()
}

// sameGraph asserts structural equality, probability bits included.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("shape mismatch: got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumVertices(), got.NumArcs(), want.NumVertices(), want.NumArcs())
	}
	for u := 0; u < want.NumVertices(); u++ {
		gd, wd := got.Out(u), want.Out(u)
		gp, wp := got.OutProbs(u), want.OutProbs(u)
		if len(gd) != len(wd) {
			t.Fatalf("vertex %d: degree %d, want %d", u, len(gd), len(wd))
		}
		for i := range wd {
			if gd[i] != wd[i] || math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
				t.Fatalf("vertex %d arc %d: (%d,%g), want (%d,%g)", u, i, gd[i], gp[i], wd[i], wp[i])
			}
		}
	}
}

func TestDeltaCompactMatchesRebuild(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		g := randUGraph(r, 2+r.Intn(12), 0.3)
		d := NewDelta(g)
		var applied []ArcUpdate
		for i := 0; i < 1+r.Intn(6); i++ {
			u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
			var up ArcUpdate
			if d.Prob(u, v) > 0 {
				if r.Bool(0.5) {
					up = ArcUpdate{Op: OpDelete, U: u, V: v}
				} else {
					up = ArcUpdate{Op: OpReweight, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
				}
			} else {
				up = ArcUpdate{Op: OpInsert, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
			}
			if err := d.Stage(up); err != nil {
				t.Fatalf("stage %+v: %v", up, err)
			}
			applied = append(applied, up)
		}
		got := d.Compact()
		want := rebuildWithUpdates(t, g, applied)
		sameGraph(t, got, want)
		if got.NumArcs() != d.NumArcs() {
			t.Fatalf("overlay NumArcs %d, compacted %d", d.NumArcs(), got.NumArcs())
		}
		// The reversed overlay compacts to the reverse of the compacted
		// overlay — the identity the engine's rev-graph patching rests on.
		sameGraph(t, d.Reversed(g.Reverse()).Compact(), got.Reverse())
	}
}

func TestDeltaStageValidation(t *testing.T) {
	g := PaperFig1()
	d := NewDelta(g)
	haveU, haveV := -1, -1
	for u := 0; u < g.NumVertices() && haveU < 0; u++ {
		if len(g.Out(u)) > 0 {
			haveU, haveV = u, int(g.Out(u)[0])
		}
	}
	cases := []struct {
		name string
		up   ArcUpdate
	}{
		{"insert existing", ArcUpdate{Op: OpInsert, U: haveU, V: haveV, P: 0.5}},
		{"insert nan", ArcUpdate{Op: OpInsert, U: 0, V: 0, P: math.NaN()}},
		{"insert zero", ArcUpdate{Op: OpInsert, U: 0, V: 0, P: 0}},
		{"insert above one", ArcUpdate{Op: OpInsert, U: 0, V: 0, P: 1.5}},
		{"delete missing", ArcUpdate{Op: OpDelete, U: 0, V: 0}},
		{"reweight missing", ArcUpdate{Op: OpReweight, U: 0, V: 0, P: 0.5}},
		{"reweight nan", ArcUpdate{Op: OpReweight, U: haveU, V: haveV, P: math.NaN()}},
		{"out of range u", ArcUpdate{Op: OpInsert, U: -1, V: 0, P: 0.5}},
		{"out of range v", ArcUpdate{Op: OpInsert, U: 0, V: g.NumVertices(), P: 0.5}},
		{"unknown op", ArcUpdate{Op: UpdateOp(99), U: 0, V: 1, P: 0.5}},
	}
	for _, c := range cases {
		if err := d.Stage(c.up); err == nil {
			t.Errorf("%s: staged without error", c.name)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("rejected updates left %d staged arcs", d.Len())
	}
}

func TestDeltaStageSequences(t *testing.T) {
	g := NewBuilder(3).MustBuild() // no arcs
	d := NewDelta(g)
	// insert → reweight → delete → insert again is a legal sequence.
	for _, up := range []ArcUpdate{
		{Op: OpInsert, U: 0, V: 1, P: 0.3},
		{Op: OpReweight, U: 0, V: 1, P: 0.7},
		{Op: OpDelete, U: 0, V: 1},
		{Op: OpInsert, U: 0, V: 1, P: 0.9},
	} {
		if err := d.Stage(up); err != nil {
			t.Fatalf("stage %+v: %v", up, err)
		}
	}
	// insert over a staged insert must fail.
	if err := d.Stage(ArcUpdate{Op: OpInsert, U: 0, V: 1, P: 0.2}); err == nil {
		t.Fatal("double insert staged without error")
	}
	got := d.Compact()
	if p := got.Prob(0, 1); p != 0.9 {
		t.Fatalf("net probability %v, want 0.9", p)
	}
	if d.NetChanges() != 1 {
		t.Fatalf("NetChanges = %d, want 1 (one net insert)", d.NetChanges())
	}
	// An insert immediately undone by a delete is a net no-op.
	d2 := NewDelta(g)
	if err := d2.StageAll([]ArcUpdate{{Op: OpInsert, U: 1, V: 2, P: 0.4}, {Op: OpDelete, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := d2.Compact(); got.NumArcs() != 0 {
		t.Fatalf("net no-op left %d arcs", got.NumArcs())
	}
	if d2.Len() != 1 || d2.NetChanges() != 0 {
		t.Fatalf("net no-op: Len=%d NetChanges=%d, want 1 / 0", d2.Len(), d2.NetChanges())
	}
	// Reweighting back to the original bits is also a net no-op.
	pf := PaperFig1()
	d3 := NewDelta(pf)
	orig := pf.OutProbs(0)[0]
	if err := d3.StageAll([]ArcUpdate{
		{Op: OpReweight, U: 0, V: int(pf.Out(0)[0]), P: 0.33},
		{Op: OpReweight, U: 0, V: int(pf.Out(0)[0]), P: orig},
	}); err != nil {
		t.Fatal(err)
	}
	if d3.NetChanges() != 0 {
		t.Fatalf("reweight round-trip: NetChanges = %d, want 0", d3.NetChanges())
	}
}

func TestDeltaOutArcsOverlay(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 100; trial++ {
		g := randUGraph(r, 2+r.Intn(8), 0.35)
		d := NewDelta(g)
		for i := 0; i < r.Intn(5); i++ {
			u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
			if d.Prob(u, v) > 0 {
				_ = d.Stage(ArcUpdate{Op: OpDelete, U: u, V: v})
			} else {
				_ = d.Stage(ArcUpdate{Op: OpInsert, U: u, V: v, P: 0.5})
			}
		}
		want := d.Compact()
		for u := 0; u < g.NumVertices(); u++ {
			dst, probs := d.OutArcs(u)
			wd, wp := want.Out(u), want.OutProbs(u)
			if len(dst) != len(wd) {
				t.Fatalf("vertex %d: overlay degree %d, compacted %d", u, len(dst), len(wd))
			}
			for i := range wd {
				if dst[i] != wd[i] || probs[i] != wp[i] {
					t.Fatalf("vertex %d arc %d: overlay (%d,%g), compacted (%d,%g)",
						u, i, dst[i], probs[i], wd[i], wp[i])
				}
			}
		}
	}
}

// TestDeltaOutArcsAliasesUntouchedRows pins the zero-copy fast path: a
// vertex with no staged changes must get back the base graph's own
// storage (no allocation), while a touched vertex still gets a fresh
// overlay copy that leaves the base unmodified.
func TestDeltaOutArcsAliasesUntouchedRows(t *testing.T) {
	g := PaperFig1()
	d := NewDelta(g)
	// Touch vertex 0 only; every other row must alias the base.
	if err := d.Stage(ArcUpdate{Op: OpInsert, U: 0, V: 0, P: 0.25}); err != nil {
		t.Fatal(err)
	}
	for u := 1; u < g.NumVertices(); u++ {
		base := g.Out(u)
		if len(base) == 0 {
			continue
		}
		dst, probs := d.OutArcs(u)
		if &dst[0] != &base[0] || &probs[0] != &g.OutProbs(u)[0] {
			t.Fatalf("vertex %d untouched but OutArcs copied", u)
		}
	}
	// The touched row must NOT alias: mutating the overlay result would
	// otherwise corrupt the base graph.
	dst, _ := d.OutArcs(0)
	base := g.Out(0)
	if len(dst) > 0 && len(base) > 0 && &dst[0] == &base[0] {
		t.Fatal("touched vertex 0 aliases base storage")
	}
	// A delete staged on a row also forces the copy path.
	d2 := NewDelta(g)
	v := int(g.Out(1)[0])
	if err := d2.Stage(ArcUpdate{Op: OpDelete, U: 1, V: v}); err != nil {
		t.Fatal(err)
	}
	dst2, _ := d2.OutArcs(1)
	if len(dst2) != len(g.Out(1))-1 {
		t.Fatalf("deleted arc still present: %d arcs, want %d", len(dst2), len(g.Out(1))-1)
	}
	if g.Prob(1, v) == 0 {
		t.Fatal("overlay delete leaked into the base graph")
	}
}

func TestGraphApply(t *testing.T) {
	g := PaperFig1()
	mut, err := g.Apply([]ArcUpdate{{Op: OpInsert, U: 0, V: 0, P: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Prob(0, 0) != 0.25 || mut.NumArcs() != g.NumArcs()+1 {
		t.Fatalf("apply failed: p=%v arcs=%d", mut.Prob(0, 0), mut.NumArcs())
	}
	if _, err := g.Apply([]ArcUpdate{{Op: OpDelete, U: 0, V: 0}}); err == nil {
		t.Fatal("invalid batch applied without error")
	}
}

func TestBoundedDistances(t *testing.T) {
	// Path 0 → 1 → 2 → 3 plus a deleted-only arc 1 → 4 in a second graph.
	b := NewBuilder(5)
	b.AddArc(0, 1, 0.5)
	b.AddArc(1, 2, 0.5)
	b.AddArc(2, 3, 0.5)
	g := b.MustBuild()
	b2 := NewBuilder(5)
	b2.AddArc(1, 4, 0.5)
	old := b2.MustBuild()

	dist := BoundedDistances([]int32{0}, 2, g, old)
	want := []int32{0, 1, 2, -1, 2}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("dist[%d] = %d, want %d (full: %v)", v, d, want[v], dist)
		}
	}
	// Depth 0 reaches only the starts.
	dist = BoundedDistances([]int32{2, 4}, 0, g)
	for v, d := range dist {
		wantD := int32(-1)
		if v == 2 || v == 4 {
			wantD = 0
		}
		if d != wantD {
			t.Fatalf("depth-0 dist[%d] = %d, want %d", v, d, wantD)
		}
	}
}

func TestUpdateOpStringAndParse(t *testing.T) {
	for _, op := range []UpdateOp{OpInsert, OpDelete, OpReweight} {
		got, err := ParseUpdateOp(op.String())
		if err != nil || got != op {
			t.Fatalf("ParseUpdateOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	for short, want := range map[string]UpdateOp{"ins": OpInsert, "del": OpDelete, "rw": OpReweight} {
		got, err := ParseUpdateOp(short)
		if err != nil || got != want {
			t.Fatalf("ParseUpdateOp(%q) = %v, %v", short, got, err)
		}
	}
	if _, err := ParseUpdateOp("upsert"); err == nil {
		t.Fatal("unknown op parsed")
	}
	if s := UpdateOp(99).String(); s != "UpdateOp(99)" {
		t.Fatalf("unknown op string %q", s)
	}
}

// TestParseUpdateSpec pins the -update syntax of usim and usim-index:
// the updates each valid spec yields and the exact text of each error,
// which the commands print after "-update ".
func TestParseUpdateSpec(t *testing.T) {
	cases := []struct {
		spec string
		want []ArcUpdate
		err  string
	}{
		{spec: ""},
		{spec: "insert:0,1,0.5", want: []ArcUpdate{{Op: OpInsert, U: 0, V: 1, P: 0.5}}},
		{spec: "reweight:3,17,0.9;delete:4,1", want: []ArcUpdate{
			{Op: OpReweight, U: 3, V: 17, P: 0.9}, {Op: OpDelete, U: 4, V: 1}}},
		{spec: " ins : 1 , 2 , 0.25 ;\tdel: 2,3\n", want: []ArcUpdate{
			{Op: OpInsert, U: 1, V: 2, P: 0.25}, {Op: OpDelete, U: 2, V: 3}}},
		{spec: ";rw:1,2,1;; ;insert:2,1,1e-1;", want: []ArcUpdate{
			{Op: OpReweight, U: 1, V: 2, P: 1}, {Op: OpInsert, U: 2, V: 1, P: 0.1}}},
		{spec: ";; ;", err: `";; ;": no updates`},
		{spec: "insert 1,2,0.5", err: `"insert 1,2,0.5": want op:u,v[,p]`},
		{spec: "delete:1,2,0.5", err: `"delete:1,2,0.5": delete takes 2 comma-separated values`},
		{spec: "insert:1,2", err: `"insert:1,2": insert takes 3 comma-separated values`},
		{spec: "rw:1,2,0.5,0.5", err: `"rw:1,2,0.5,0.5": reweight takes 3 comma-separated values`},
		{spec: "insert:x,2,0.5", err: `"insert:x,2,0.5": bad vertex "x"`},
		{spec: "delete:1, y", err: `"delete:1, y": bad vertex " y"`},
		{spec: "delete:1,", err: `"delete:1,": bad vertex ""`},
		{spec: "reweight:1,2,high", err: `"reweight:1,2,high": bad probability "high"`},
		{spec: "move:1,2", err: `"move:1,2": ugraph: unknown update op "move" (want insert, delete or reweight)`},
		{spec: "insert:0,1,0.5; bogus", err: `"bogus": want op:u,v[,p]`},
	}
	for _, c := range cases {
		got, err := ParseUpdateSpec(c.spec)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("ParseUpdateSpec(%q) = %v, %v; want error %s", c.spec, got, err, c.err)
			}
		case err != nil || !slices.Equal(got, c.want):
			t.Errorf("ParseUpdateSpec(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
}

func TestDeltaBaseAndProbBounds(t *testing.T) {
	g := PaperFig1()
	d := NewDelta(g)
	if d.Base() != g {
		t.Fatal("Base does not return the staged-over graph")
	}
	if d.Prob(-1, 0) != 0 || d.Prob(0, g.NumVertices()) != 0 {
		t.Fatal("out-of-range Prob not 0")
	}
}
