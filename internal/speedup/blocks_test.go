package speedup

import (
	"fmt"
	"sync"
	"testing"

	"usimrank/internal/bitvec"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// referenceBuild is the per-arc filter build the block layout replaced,
// kept as the reference its sampling must match: per vertex a child
// seed drawn from r in vertex order, then per process rng.Bool per arc
// and a reservoir pick with rng.Intn.
func referenceBuild(g *ugraph.Graph, N int, r *rng.RNG) []*bitvec.Vector {
	seeds := make([]uint64, g.NumVertices())
	for w := range seeds {
		seeds[w] = r.Uint64()
	}
	arc := make([]*bitvec.Vector, g.NumArcs())
	for w := range seeds {
		lo, hi := g.ArcRange(w)
		rw := rng.New(seeds[w])
		probs := g.OutProbs(w)
		for i := 0; i < N && lo < hi; i++ {
			pick := int32(-1)
			count := 0
			for id := lo; id < hi; id++ {
				if rw.Bool(probs[id-lo]) {
					count++
					if count == 1 || rw.Intn(count) == 0 {
						pick = id
					}
				}
			}
			if pick >= 0 {
				if arc[pick] == nil {
					arc[pick] = bitvec.New(N)
				}
				arc[pick].Set(i)
			}
		}
	}
	return arc
}

// referencePropagate is the map-based propagation the pooled frontiers
// replaced: level k maps each reached vertex to its counting vector.
func referencePropagate(g *ugraph.Graph, arc []*bitvec.Vector, N, src, n int) []map[int32]*bitvec.Vector {
	levels := make([]map[int32]*bitvec.Vector, n+1)
	start := bitvec.New(N)
	start.SetAll()
	levels[0] = map[int32]*bitvec.Vector{int32(src): start}
	for k := 0; k < n; k++ {
		next := make(map[int32]*bitvec.Vector)
		for w, mw := range levels[k] {
			lo, hi := g.ArcRange(int(w))
			for id := lo; id < hi; id++ {
				if arc[id] == nil {
					continue
				}
				x := g.Out(int(w))[id-lo]
				if next[x] == nil {
					next[x] = bitvec.New(N)
				}
				next[x].OrAnd(mw, arc[id])
			}
		}
		for x, mx := range next {
			if !mx.Any() {
				delete(next, x)
			}
		}
		levels[k+1] = next
	}
	return levels
}

// randFilterGraph draws a graph with the row shapes the build has to
// get right: empty rows, self-loops, p = 1 arcs and a few long rows.
func randFilterGraph(r *rng.RNG, n int) *ugraph.Graph {
	b := ugraph.NewBuilder(n)
	for u := 0; u < n; u++ {
		density := 0.25
		if u%7 == 3 {
			density = 0.9 // long rows drive the reservoir's large counts
		}
		for v := 0; v < n; v++ {
			if r.Bool(density) {
				p := 0.05 + 0.95*r.Float64()
				if r.Bool(0.2) {
					p = 1
				}
				b.AddArc(u, v, p)
			}
		}
	}
	return b.MustBuild()
}

// requireSameFilters compares every bit of every arc's filter.
func requireSameFilters(t *testing.T, what string, f *Filters, want []*bitvec.Vector) {
	t.Helper()
	for id := range want {
		got := f.Arc(int32(id))
		switch {
		case got == nil && want[id] == nil:
		case got == nil || want[id] == nil:
			t.Fatalf("%s arc %d: nil mismatch (got %v, want %v)", what, id, got != nil, want[id] != nil)
		case !got.Equal(want[id]):
			t.Fatalf("%s arc %d: filter bits differ", what, id)
		}
	}
}

// requireSameTables compares pooled tables with the reference levels
// vertex by vertex and word by word.
func requireSameTables(t *testing.T, what string, tab *Tables, want []map[int32]*bitvec.Vector) {
	t.Helper()
	for k := range want {
		verts := tab.Vertices(k)
		if len(verts) != len(want[k]) {
			t.Fatalf("%s level %d: %d vertices, want %d", what, k, len(verts), len(want[k]))
		}
		for i, v := range verts {
			if i > 0 && verts[i-1] >= v {
				t.Fatalf("%s level %d: vertices not ascending: %v", what, k, verts)
			}
			ref, ok := want[k][v]
			if !ok {
				t.Fatalf("%s level %d: vertex %d not in the reference", what, k, v)
			}
			if !bitvec.FromWords(tab.N, tab.rows[k][i*tab.words:(i+1)*tab.words]).Equal(ref) {
				t.Fatalf("%s level %d vertex %d: counting bits differ", what, k, v)
			}
		}
	}
}

// TestBlockBuildMatchesReference pins the block build — integer flip
// thresholds, the reservoir's rejection table, one slab — to the
// per-arc rng.Bool/rng.Intn build bit for bit, and the pooled
// propagation to the map-based one, across N values that do and do not
// fill their last word and worker counts 1 and 3.
func TestBlockBuildMatchesReference(t *testing.T) {
	r := rng.New(2718)
	for trial := 0; trial < 12; trial++ {
		g := randFilterGraph(r, 4+r.Intn(28))
		N := []int{1, 64, 96, 130, 1000}[trial%5]
		want := referenceBuild(g, N, rng.New(uint64(trial)))
		for _, workers := range []int{1, 3} {
			f := BuildFiltersPool(g, N, rng.New(uint64(trial)), poolOf(workers))
			what := fmt.Sprintf("trial %d N=%d workers=%d", trial, N, workers)
			requireSameFilters(t, what, f, want)
			tab, s := new(Tables), new(Scratch)
			for src := 0; src < g.NumVertices(); src++ {
				PropagateInto(tab, s, f, src, 4) // reused tables and scratch
				ref := referencePropagate(g, want, N, src, 4)
				requireSameTables(t, fmt.Sprintf("%s src %d", what, src), tab, ref)
				requireSameTables(t, fmt.Sprintf("%s src %d clone", what, src), tab.Clone(), ref)
			}
		}
	}
}

// randPatchBatch stages a valid batch on g that changes row lengths
// (inserts, deletes), reweights, self-loops and p = 1 arcs, and returns
// the mutated graph with the reversed-side touched set: the tails whose
// out-row changed.
func randPatchBatch(t *testing.T, r *rng.RNG, g *ugraph.Graph) (*ugraph.Graph, []int32) {
	t.Helper()
	n := g.NumVertices()
	d := ugraph.NewDelta(g)
	touched := map[int32]bool{}
	for i := 0; i < 1+r.Intn(5); i++ {
		u, v := r.Intn(n), r.Intn(n)
		if r.Bool(0.2) {
			v = u // self-loop
		}
		p := 0.05 + 0.95*r.Float64()
		if r.Bool(0.25) {
			p = 1
		}
		up := ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: p}
		if d.Prob(u, v) > 0 {
			up = ugraph.ArcUpdate{Op: ugraph.OpReweight, U: u, V: v, P: p}
			if r.Bool(0.5) {
				up = ugraph.ArcUpdate{Op: ugraph.OpDelete, U: u, V: v}
			}
		}
		if err := d.Stage(up); err != nil {
			t.Fatal(err)
		}
		touched[int32(u)] = true
	}
	var ts []int32
	for w := range touched {
		ts = append(ts, w)
	}
	return d.Compact(), ts
}

// TestChainedPatchesMatchFreshBuild chains 1–5 patches with no
// propagation between them, then checks the lazily re-sampled pool
// against a fresh build of the final graph: propagations first (which
// re-sample what they reach), then every bit after Materialize. A vertex
// invalidated by several patches is re-sampled once, and the patches
// themselves re-sample nothing.
func TestChainedPatchesMatchFreshBuild(t *testing.T) {
	r := rng.New(1618)
	const N = 130
	for trial := 0; trial < 40; trial++ {
		g := randFilterGraph(r, 3+r.Intn(14))
		f := BuildFilters(g, N, rng.New(77))
		invalid := map[int32]bool{}
		for p := 0; p < 1+r.Intn(5); p++ {
			var touched []int32
			g, touched = randPatchBatch(t, r, g)
			f = PatchFilters(f, g, touched)
			for _, w := range touched {
				invalid[w] = true
			}
		}
		if got := f.Resampled(); got != 0 {
			t.Fatalf("trial %d: the patches re-sampled %d vertices", trial, got)
		}
		stale := 0
		for w := range invalid {
			if g.OutDegree(int(w)) > 0 {
				stale++
			}
		}
		want := referenceBuild(g, N, rng.New(77))
		src := r.Intn(g.NumVertices())
		requireSameTables(t, fmt.Sprintf("trial %d src %d", trial, src), Propagate(f, src, 5), referencePropagate(g, want, N, src, 5))
		f.Materialize(nil)
		requireSameFilters(t, fmt.Sprintf("trial %d", trial), f, want)
		if got := f.Resampled(); got != uint64(stale) {
			t.Fatalf("trial %d: %d vertices re-sampled, want each of the %d invalidated ones once", trial, got, stale)
		}
		f.Materialize(nil)
		if got := f.Resampled(); got != uint64(stale) {
			t.Fatalf("trial %d: a second Materialize re-sampled again (%d, want %d)", trial, got, stale)
		}
	}
}

// TestConcurrentResampleAgrees propagates from every vertex of a dense
// graph on many goroutines at once over a freshly patched pool, so the
// walks race to re-sample the same invalidated heads; every table must
// equal a serial run's on an identically patched pool.
func TestConcurrentResampleAgrees(t *testing.T) {
	r := rng.New(4242)
	b := ugraph.NewBuilder(24)
	for u := 0; u < 24; u++ {
		for v := 0; v < 24; v++ {
			if r.Bool(0.5) {
				b.AddArc(u, v, 0.3+0.7*r.Float64())
			}
		}
	}
	g := b.MustBuild()
	base := BuildFilters(g, 200, rng.New(5))
	newG, touched := randPatchBatch(t, r, g)
	for _, w := range []int32{0, 1, 2, 3} { // extra heads are allowed
		touched = append(touched, w)
	}
	serial := PatchFilters(base, newG, touched)
	want := make([]*Tables, newG.NumVertices())
	for src := range want {
		want[src] = Propagate(serial, src, 5)
	}
	distinct := map[int32]bool{}
	for _, w := range touched {
		distinct[w] = true
	}
	for round := 0; round < 4; round++ {
		racing := PatchFilters(base, newG, touched)
		before := racing.Resampled() // the count is shared with serial's lineage
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for gr := 0; gr < 8; gr++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tab, s := new(Tables), new(Scratch)
				for src := 0; src < newG.NumVertices(); src++ {
					PropagateInto(tab, s, racing, (src+gr*3)%newG.NumVertices(), 5)
					if err := sameTables(tab, want[tab.Src]); err != nil {
						errs[gr] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if got, lim := racing.Resampled()-before, uint64(len(distinct)); got > lim {
			t.Fatalf("round %d: %d re-samples published for %d touched vertices", round, got, lim)
		}
	}
}

// poolOf returns a pool of the given width (nil, inline, for 1).
func poolOf(workers int) *parallel.Pool {
	if workers <= 1 {
		return nil
	}
	return parallel.NewPool(workers)
}

// sameTables reports the first difference between two tables.
func sameTables(a, b *Tables) error {
	for k := 0; k <= a.Steps; k++ {
		va, vb := a.Vertices(k), b.Vertices(k)
		if len(va) != len(vb) {
			return fmt.Errorf("src %d level %d: %d vs %d vertices", a.Src, k, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				return fmt.Errorf("src %d level %d: vertex %d vs %d", a.Src, k, va[i], vb[i])
			}
		}
		ra, rb := a.rows[k], b.rows[k]
		for i := range ra {
			if ra[i] != rb[i] {
				return fmt.Errorf("src %d level %d: word %d differs", a.Src, k, i)
			}
		}
	}
	return nil
}

// TestWarmPropagationAllocatesNothing pins the pooled path: once the
// tables and scratch have grown, PropagateInto and MeetingEstimatesInto
// allocate nothing, at every N.
func TestWarmPropagationAllocatesNothing(t *testing.T) {
	g := randFilterGraph(rng.New(8), 40)
	for _, N := range []int{256, 1024, 4096} {
		f := BuildFilters(g, N, rng.New(3))
		ta, tb, s := new(Tables), new(Tables), new(Scratch)
		m := make([]float64, 6)
		run := func() {
			PropagateInto(ta, s, f, 1, 5)
			PropagateInto(tb, s, f, 2, 5)
			MeetingEstimatesInto(m, ta, tb)
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("N=%d: warm propagation makes %v allocations, want 0", N, allocs)
		}
	}
}

// mutateRows returns g with the out-row of every vertex in ws changed:
// its first arc, if any, reweighted, and an arc to its first absent
// head inserted.
func mutateRows(t *testing.T, g *ugraph.Graph, ws []int32) *ugraph.Graph {
	t.Helper()
	d := ugraph.NewDelta(g)
	for _, w := range ws {
		u := int(w)
		if row := g.Out(u); len(row) > 0 {
			if err := d.Stage(ugraph.ArcUpdate{Op: ugraph.OpReweight, U: u, V: int(row[0]), P: 0.5 + g.OutProbs(u)[0]/4}); err != nil {
				t.Fatal(err)
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			if d.Prob(u, v) == 0 {
				if err := d.Stage(ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: 0.75}); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	return d.Compact()
}

// TestPatchesCloneOnlyTouchedPages chains three patches over a graph of
// four block-table pages: the first touches two vertices on page 0 and
// vertex 70 on page 1, the next two touch pages 2 and 0, so page 1,
// with 70 invalid on it, is shared by generations 1, 2 and 3. Several
// goroutines then re-sample 70 from generations 1 and 3 at once, which
// publishes one block into the shared page. Every table and, after
// Materialize, every filter of every generation must equal a fresh
// build of its graph bit for bit.
func TestPatchesCloneOnlyTouchedPages(t *testing.T) {
	const n, N, steps = 200, 130, 4
	r := rng.New(1414)
	b := ugraph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if r.Bool(0.03) || v == (u*7+1)%n { // every row non-empty
				p := 0.05 + 0.95*r.Float64()
				if r.Bool(0.2) {
					p = 1
				}
				b.AddArc(u, v, p)
			}
		}
	}
	gs := []*ugraph.Graph{b.MustBuild()}
	fs := []*Filters{BuildFilters(gs[0], N, rng.New(77))}
	for _, ws := range [][]int32{{5, 9, 70}, {140}, {10}} {
		g := mutateRows(t, gs[len(gs)-1], ws)
		gs, fs = append(gs, g), append(fs, PatchFilters(fs[len(fs)-1], g, ws))
	}
	if len(fs[0].pages) != 4 {
		t.Fatalf("%d pages for %d vertices, want 4", len(fs[0].pages), n)
	}
	for i, want := range []struct{ cloned, shared []int }{
		{[]int{0, 1}, []int{2, 3}}, // generation 1 against 0
		{[]int{2}, []int{0, 1, 3}},
		{[]int{0}, []int{1, 2, 3}},
	} {
		for _, p := range want.cloned {
			if fs[i+1].pages[p] == fs[i].pages[p] {
				t.Errorf("generation %d shares page %d, which holds a touched vertex", i+1, p)
			}
		}
		for _, p := range want.shared {
			if fs[i+1].pages[p] != fs[i].pages[p] {
				t.Errorf("generation %d cloned page %d, which holds no touched vertex", i+1, p)
			}
		}
	}
	for _, w := range []int32{5, 9, 70} {
		if fs[1].slot(w).Load() != nil {
			t.Errorf("vertex %d still valid after its patch", w)
		}
	}

	want := make([][]*bitvec.Vector, len(gs))
	for i, g := range gs {
		want[i] = referenceBuild(g, N, rng.New(77))
	}
	const racers = 4
	gens := []int{1, 3}
	tabs := make([]*Tables, racers*len(gens))
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs[i] = Propagate(fs[gens[i%len(gens)]], 70, steps)
		}()
	}
	wg.Wait()
	for i, tab := range tabs {
		gen := gens[i%len(gens)]
		requireSameTables(t, fmt.Sprintf("generation %d racer %d", gen, i), tab, referencePropagate(gs[gen], want[gen], N, 70, steps))
	}
	blk := fs[1].slot(70).Load()
	if blk == nil || fs[2].slot(70).Load() != blk || fs[3].slot(70).Load() != blk {
		t.Fatal("the shared page does not hold one published block for vertex 70 in all three generations")
	}
	for i, f := range fs {
		src := []int{0, 9, 70, 140}[i]
		requireSameTables(t, fmt.Sprintf("generation %d src %d", i, src), Propagate(f, src, steps), referencePropagate(gs[i], want[i], N, src, steps))
		f.Materialize(nil)
		requireSameFilters(t, fmt.Sprintf("generation %d", i), f, want[i])
	}
}
