package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// memoQuery is one SR-TS source query the memo tests repeat.
type memoQuery struct {
	u     int
	cands []int
}

// checkFresh runs q over AlgTwoPhase on e and fails t unless every
// score has the bits a fresh engine over e's graph gives.
func checkFresh(t *testing.T, where string, e *Engine, q memoQuery) {
	t.Helper()
	checkFreshAlg(t, where, e, AlgTwoPhase, q)
}

// checkFreshAlg is checkFresh over alg.
func checkFreshAlg(t *testing.T, where string, e *Engine, alg Algorithm, q memoQuery) {
	t.Helper()
	got, err := e.SingleSourceAgainst(alg, q.u, q.cands)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newEngine(t, e.Graph(), e.Options()).SingleSourceAgainst(alg, q.u, q.cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: %v s(%d,%d) = %v, a fresh engine gives %v", where, alg, q.u, q.cands[i], got[i], want[i])
		}
	}
}

// walkCounts returns the walks e's lineage has drawn and reused.
func walkCounts(e *Engine) (drawn, reused uint64) {
	ks := e.KernelStats()
	return ks.Walks, ks.WalksReused
}

// memoBatch draws a valid batch of 1–4 arc updates against g: inserts,
// deletes and reweights, and with probability 1/3 per arc a pair that
// nets out (insert then delete, reweight and back, delete then
// re-insert).
func memoBatch(r *rng.RNG, g *ugraph.Graph) []ugraph.ArcUpdate {
	d := ugraph.NewDelta(g)
	var ups []ugraph.ArcUpdate
	stage := func(up ugraph.ArcUpdate) {
		if err := d.Stage(up); err != nil {
			panic(err) // every update below is valid against the overlay
		}
		ups = append(ups, up)
	}
	for k := 1 + r.Intn(4); k > 0; k-- {
		u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
		p := 0.05 + 0.95*r.Float64()
		if r.Intn(4) == 0 {
			p = 1
		}
		netOut := r.Intn(3) == 0
		switch cur := d.Prob(u, v); {
		case cur == 0:
			stage(ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: p})
			if netOut {
				stage(ugraph.ArcUpdate{Op: ugraph.OpDelete, U: u, V: v})
			}
		case r.Intn(2) == 0:
			stage(ugraph.ArcUpdate{Op: ugraph.OpReweight, U: u, V: v, P: p})
			if netOut {
				stage(ugraph.ArcUpdate{Op: ugraph.OpReweight, U: u, V: v, P: cur})
			}
		default:
			stage(ugraph.ArcUpdate{Op: ugraph.OpDelete, U: u, V: v})
			if netOut {
				stage(ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: cur})
			}
		}
	}
	return ups
}

// apply derives e's successor for ups, failing t on error.
func apply(t *testing.T, e *Engine, ups []ugraph.ArcUpdate) *Engine {
	t.Helper()
	succ, _, err := e.ApplyUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	return succ
}

// FuzzTwoPhaseMemo drives SR-TS and Sampling source queries through
// the walk memo over a random small uncertain graph with dead ends,
// self-loops and p = 1 arcs (gridPinGraph), across insert, delete and
// reweight batches, some of which net out. Every answer must have the
// bits of a fresh engine on the same graph.
//
// data[0..3] pick the graph size and seed, N, Steps, the engine seed
// and Parallelism; the two queries share candidate sides. Each further
// byte b is one step, b%4 choosing: 0 or 1, run query b>>2&1 on the
// current engine (a side is kept on its second request, so queries
// repeat); 2, apply a batch, so consecutive 2s make gaps of more
// generations than the memo remembers; 3, derive two successors from
// the current engine with different batches, query each twice, and go
// on with the first. Bit 3 of b picks the queries' strategy, SR-TS (0)
// or Sampling (1): the two draw the same side streams, so a side one
// strategy's query kept is reused by the other's.
func FuzzTwoPhaseMemo(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 64 {
			return
		}
		n := 4 + int(data[0]%9)
		opt := Options{
			N:           []int{1, 100, 129, 300}[data[1]%4],
			Steps:       2 + int(data[1]>>2%4),
			Seed:        uint64(data[2]&0x7f) + 1,
			Parallelism: 1 + int(data[2]>>7),
		}
		g := gridPinGraph(n, uint64(data[3])+1)
		e := newEngine(t, g, opt)
		u := int(data[0]>>4) % n
		var cands []int
		for v := 0; v < min(n, 6); v++ {
			cands = append(cands, (u+v)%n)
		}
		queries := []memoQuery{{u, cands}, {(u + 1) % n, cands[1:]}}
		for i, b := range data[4:] {
			r := rng.New(uint64(i)<<8 | uint64(b))
			where := fmt.Sprintf("step %d (byte %#x) at generation %d", i, b, e.Generation())
			alg := []Algorithm{AlgTwoPhase, AlgSampling}[b>>3&1]
			switch b % 4 {
			case 0, 1:
				checkFreshAlg(t, where, e, alg, queries[b>>2&1])
			case 2:
				e = apply(t, e, memoBatch(r, e.Graph()))
			case 3:
				a, c := apply(t, e, memoBatch(r, e.Graph())), apply(t, e, memoBatch(r, e.Graph()))
				for round := 0; round < 2; round++ {
					checkFreshAlg(t, where+" first successor", a, alg, queries[b>>2&1])
					checkFreshAlg(t, where+" second successor", c, alg, queries[b>>2&1])
				}
				e = a
			}
		}
	})
}

// TestWalkMemoAdmissionAndReuse: a side's grids are kept on its second
// request, not its first; a third query on the same generation draws
// nothing; after a batch the successor re-draws only some chunks, and
// every answer has a fresh engine's bits.
func TestWalkMemoAdmissionAndReuse(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, Options{N: 1000, Seed: 4, Parallelism: 2})
	q := memoQuery{u: 0, cands: []int{1, 5, 17, 40, 63, 64, 90}}
	sides := uint64(1 + len(q.cands))
	full := sides * uint64(e.Options().N)
	step := func(where string, e *Engine, wantKept int) (drawn, reused uint64) {
		t.Helper()
		d0, r0 := walkCounts(e)
		checkFresh(t, where, e, q)
		d1, r1 := walkCounts(e)
		// checkFresh's fresh engine has counters of its own.
		if d1-d0+r1-r0 != full {
			t.Fatalf("%s: drew %d and reused %d walks, want %d in all", where, d1-d0, r1-r0, full)
		}
		if got := e.memo.kept.Len(); got != wantKept {
			t.Fatalf("%s: %d sides kept, want %d", where, got, wantKept)
		}
		return d1 - d0, r1 - r0
	}
	if _, reused := step("first request", e, 0); reused != 0 {
		t.Fatalf("first request reused %d walks", reused)
	}
	if _, reused := step("second request", e, int(sides)); reused != 0 {
		t.Fatalf("second request reused %d walks", reused)
	}
	if drawn, _ := step("third request", e, int(sides)); drawn != 0 {
		t.Fatalf("third request on the same generation drew %d walks", drawn)
	}
	// Reweight an arc into a vertex that some kept chunks' walks leave
	// and others do not.
	h := chunkSplitter(t, e)
	succ := apply(t, e, []ugraph.ArcUpdate{{Op: ugraph.OpReweight, U: int(e.rev.Out(h)[0]), V: h, P: 0.5}})
	drawn, reused := step("after a batch", succ, int(sides))
	if drawn == 0 || reused == 0 {
		t.Fatalf("after a batch: drew %d and reused %d walks, want some of each", drawn, reused)
	}
	if drawn, _ := step("again after the batch", succ, int(sides)); drawn != 0 {
		t.Fatalf("a repeat on the successor drew %d walks", drawn)
	}
	// A Clone starts with an empty memo.
	if _, reused := step("on a clone", succ.Clone(), 0); reused != 0 {
		t.Fatalf("a clone reused %d walks", reused)
	}
}

// chunkSplitter returns a vertex with in-arcs that the walks of some,
// but not all, of e's kept chunks leave.
func chunkSplitter(t *testing.T, e *Engine) int {
	t.Helper()
	left := make([]int, e.g.NumVertices()) // chunks whose walks leave v
	chunks := 0
	_, sides := e.memo.kept.Snapshot()
	for _, side := range sides {
		for _, grid := range side.grids {
			seen := map[int32]bool{}
			for _, at := range grid[:len(grid)/(e.opt.Steps+1)*e.opt.Steps] {
				if at >= 0 && !seen[at] {
					seen[at] = true
					left[at]++
				}
			}
			chunks++
		}
	}
	for v, c := range left {
		if c > 0 && c < chunks && len(e.rev.Out(v)) > 0 {
			return v
		}
	}
	t.Fatal("every vertex is left by all kept chunks or by none")
	return -1
}

// TestWalkMemoQueryThatDoesNotFit: a source query whose 1 + |C| sides
// exceed the memo's capacity records and keeps nothing, and still
// answers bit-identically.
func TestWalkMemoQueryThatDoesNotFit(t *testing.T) {
	g := gridPinGraph(12, 5)
	opt := Options{Steps: 2, Seed: 3, Parallelism: 1}
	opt.N = memoBudget / (2 * (opt.Steps + 1) * 4) // two sides fit
	e := newEngine(t, g, opt)
	if c := e.memo.kept.Cap(); c != 2 {
		t.Fatalf("memo holds %d sides, want 2", c)
	}
	q := memoQuery{u: 1, cands: []int{2, 3}}
	checkFresh(t, "first request", e, q)
	if _, err := e.SingleSourceAgainst(AlgTwoPhase, q.u, q.cands); err != nil {
		t.Fatal(err)
	}
	if e.memo.seen.Len() != 0 || e.memo.kept.Len() != 0 || e.KernelStats().WalksReused != 0 {
		t.Fatalf("a query over capacity used the memo: %d keys, %d sides, %d walks reused",
			e.memo.seen.Len(), e.memo.kept.Len(), e.KernelStats().WalksReused)
	}
	if newWalkMemo(Options{Steps: 5, N: memoBudget}) != nil {
		t.Fatal("an engine whose one side exceeds the budget has a memo")
	}
}

// TestWalkMemoCancelledQueryKeepsNothing: a source query on a cancelled
// pool view keeps no grids, even for sides on their second request,
// and the next query draws them in full.
func TestWalkMemoCancelledQueryKeepsNothing(t *testing.T) {
	g := testGraph()
	for _, par := range []int{1, 4} {
		e := newEngine(t, g, Options{N: 300, Seed: 3, Parallelism: par})
		q := memoQuery{u: 2, cands: []int{1, 3, 9}}
		checkFresh(t, "first request", e, q)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out := make([]float64, len(q.cands))
		if err := e.twoPhaseKernel(e.pool.WithContext(ctx), AlgTwoPhase.row(), q.u, q.cands, out, make([]error, len(q.cands))); err != nil {
			t.Fatal(err)
		}
		if n := e.memo.kept.Len(); n != 0 {
			t.Fatalf("par=%d: a cancelled query kept %d sides", par, n)
		}
		if _, err := e.SingleSourceAgainstCtx(ctx, AlgTwoPhase, q.u, q.cands); err == nil {
			t.Fatalf("par=%d: cancelled query returned no error", par)
		}
		d0, r0 := walkCounts(e)
		checkFresh(t, "after the cancelled queries", e, q)
		if d1, r1 := walkCounts(e); r1 != r0 || d1-d0 != uint64(4*300) {
			t.Fatalf("par=%d: drew %d and reused %d walks after a cancelled query, want 1200 and 0", par, d1-d0, r1-r0)
		}
		if n := e.memo.kept.Len(); n != 1+len(q.cands) {
			t.Fatalf("par=%d: %d sides kept, want %d", par, n, 1+len(q.cands))
		}
	}
}

// TestWalkMemoConcurrentGenerations runs source queries on an engine
// and on its successor at once: both read kept grids they share, each
// keeps what it draws in its own memo, and every answer has a fresh
// engine's bits. Run it under -race -count=10.
func TestWalkMemoConcurrentGenerations(t *testing.T) {
	g := testGraph()
	e := newEngine(t, g, Options{N: 300, Seed: 11, Parallelism: 2})
	queries := []memoQuery{
		{u: 0, cands: []int{1, 5, 17}},
		{u: 17, cands: []int{0, 5, 63}},
		{u: 40, cands: []int{2, 17, 90}},
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			if _, err := e.SingleSourceAgainst(AlgTwoPhase, q.u, q.cands); err != nil {
				t.Fatal(err)
			}
		}
	}
	succ := apply(t, e, memoBatch(rng.New(8), g))
	engines := []*Engine{e, succ}
	want := make([][][]float64, len(engines))
	for i, eng := range engines {
		fresh := newEngine(t, eng.Graph(), eng.Options())
		for _, q := range queries {
			out, err := fresh.SingleSourceAgainst(AlgTwoPhase, q.u, q.cands)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], out)
		}
	}
	var wg sync.WaitGroup
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3*len(queries); j++ {
				ei, qi := (gi+j)%len(engines), (gi+2*j)%len(queries)
				got, err := engines[ei].SingleSourceAgainst(AlgTwoPhase, queries[qi].u, queries[qi].cands)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if !sameBits(got[i], want[ei][qi][i]) {
						t.Errorf("goroutine %d: generation %d query %d [%d] = %v, fresh %v", gi, engines[ei].Generation(), qi, i, got[i], want[ei][qi][i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// The successor re-tagged every side it queried, and the chunks it
	// reused are the predecessor's grids themselves, not copies.
	keys, sides := succ.memo.kept.Snapshot()
	shared, redrawn := 0, 0
	for i, k := range keys {
		old, ok := e.memo.kept.Get(k)
		if !ok || sides[i].gen != succ.Generation() {
			t.Fatalf("side %v: predecessor has it %v, successor's entry is of generation %d", k, ok, sides[i].gen)
		}
		for ci, grid := range sides[i].grids {
			if &grid[0] == &old.grids[ci][0] {
				shared++
			} else {
				redrawn++
			}
		}
	}
	if shared == 0 || redrawn == 0 {
		t.Fatalf("successor shares %d chunks with its predecessor and re-drew %d; the batch should leave some of each", shared, redrawn)
	}
}
