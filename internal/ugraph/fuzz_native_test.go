package ugraph

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// validateGraph asserts the structural invariants every accepted graph
// must satisfy: in-range targets, probabilities in (0,1], rows sorted
// and duplicate-free, contiguous CSR ranges.
func validateGraph(t *testing.T, g *Graph) {
	t.Helper()
	var prevHi int32
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.ArcRange(u)
		if lo != prevHi {
			t.Fatalf("vertex %d: CSR range [%d,%d) not contiguous with %d", u, lo, hi, prevHi)
		}
		prevHi = hi
		probs := g.OutProbs(u)
		out := g.Out(u)
		for i, v := range out {
			if v < 0 || int(v) >= g.NumVertices() {
				t.Fatalf("vertex %d: target %d out of range", u, v)
			}
			if !(probs[i] > 0 && probs[i] <= 1) || math.IsNaN(probs[i]) {
				t.Fatalf("vertex %d: probability %v outside (0,1]", u, probs[i])
			}
			if i > 0 && out[i-1] >= v {
				t.Fatalf("vertex %d: row not strictly sorted (%d >= %d)", u, out[i-1], v)
			}
		}
	}
	if int(prevHi) != g.NumArcs() {
		t.Fatalf("CSR covers %d of %d arcs", prevHi, g.NumArcs())
	}
}

// FuzzReadText: malformed text input must error, never panic, and
// anything accepted must be a structurally valid graph that round-trips
// through the codec unchanged.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("ug 3 2\n0 1 0.5\n1 2 0.25\n"))
	f.Add([]byte("ug 0 0\n"))
	f.Add([]byte("# comment\nug 2 1\n\n0 0 1\n"))
	f.Add([]byte("ug 2 1\n0 1 1e-3\n"))
	f.Add([]byte("ug 2 3\n0 1 0.5\n"))     // header lies about the count
	f.Add([]byte("ug 2 1\n0 1 NaN\n"))     // NaN probability
	f.Add([]byte("ug 2 1\n0 1 -0.5\n"))    // negative probability
	f.Add([]byte("ug -1 0\n"))             // negative vertex count
	f.Add([]byte("ug 2 1\n0 9 0.5\n"))     // target out of range
	f.Add([]byte("ug 2 2\n0 1 .5\n0 1 1")) // duplicate arc
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		validateGraph(t, g)
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("accepted graph fails to serialise: %v", err)
		}
		g2, err := ReadText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumArcs() != g.NumArcs() {
			t.Fatalf("round-trip changed shape: %d/%d -> %d/%d",
				g.NumVertices(), g.NumArcs(), g2.NumVertices(), g2.NumArcs())
		}
	})
}

// FuzzReadBinary: the binary codec under arbitrary bytes — same
// contract as FuzzReadText.
func FuzzReadBinary(f *testing.F) {
	// Valid seeds produced by WriteBinary.
	for _, g := range []*Graph{PaperFig1(), NewBuilder(0).MustBuild(), NewBuilder(3).MustBuild()} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("USGR"))                     // truncated header
	f.Add([]byte("USGRxxxxxxxxxxxxxxxxxxxx")) // garbage header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		validateGraph(t, g)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("accepted graph fails to serialise: %v", err)
		}
		if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
	})
}

// FuzzBuilder drives the Builder through an op stream decoded from the
// fuzz input. Out-of-range endpoints and non-probabilities are the
// Builder's documented panic contract and are filtered out here; what
// must never panic is Build itself — duplicate arcs (including the ones
// AddEdge manufactures for self-inverse pairs) must surface as errors.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{3, 0, 1, 50, 1, 2, 99})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1}) // duplicate self-loop
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 16
		b := NewBuilder(n)
		for i := 1; i+2 < len(data); i += 3 {
			if n == 0 {
				break
			}
			u, v := int(data[i])%n, int(data[i+1])%n
			p := (float64(data[i+2]%100) + 1) / 100 // (0,1]
			if data[i+2]&0x80 != 0 {
				b.AddEdge(u, v, p)
			} else {
				b.AddArc(u, v, p)
			}
		}
		g, err := b.Build()
		if err != nil {
			return // duplicates rejected cleanly
		}
		validateGraph(t, g)
		if g.Reverse().NumArcs() != g.NumArcs() {
			t.Fatal("reverse changed arc count")
		}
	})
}

// fuzzDeltaInput decodes a fuzz input into a base graph and a staged
// overlay on it, returning the updates in staging order. data[0] sets
// the vertex count (1–16); data[1]'s low bits empty the first and the
// last row; data[2] counts the (tail, head, probability) byte triples of
// base arcs that follow (duplicates skipped; a probability byte
// divisible by 7 is a p = 1 arc). The remaining bytes are quadruples
// (sel, tail, head, probability): each stages the op the arc's overlay
// state allows (insert when absent; delete, or reweight when sel's bit
// 0 is set, when present), and sel's bit 1 stages its inverse right
// after it, so the pair nets out.
func fuzzDeltaInput(t *testing.T, data []byte) (*Graph, *Delta, []ArcUpdate) {
	t.Helper()
	if len(data) < 3 {
		return nil, nil, nil
	}
	n := 1 + int(data[0])%16
	prob := func(b byte) float64 {
		if b%7 == 0 {
			return 1
		}
		return float64(b%100+1) / 101
	}
	b := NewBuilder(n)
	seen := map[[2]int]bool{}
	rest := data[3:]
	for k := int(data[2]) % 48; k > 0 && len(rest) >= 3; k-- {
		u, v, p := int(rest[0])%n, int(rest[1])%n, prob(rest[2])
		rest = rest[3:]
		if seen[[2]int{u, v}] || (data[1]&1 != 0 && u == 0) || (data[1]&2 != 0 && u == n-1) {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddArc(u, v, p)
	}
	g := b.MustBuild()
	d := NewDelta(g)
	var ups []ArcUpdate
	stage := func(up ArcUpdate) {
		if err := d.Stage(up); err != nil {
			t.Fatalf("stage %+v: %v", up, err)
		}
		ups = append(ups, up)
	}
	for ; len(rest) >= 4 && len(ups) < 64; rest = rest[4:] {
		sel, u, v, p := rest[0], int(rest[1])%n, int(rest[2])%n, prob(rest[3])
		cur := d.Prob(u, v)
		switch {
		case cur == 0:
			stage(ArcUpdate{Op: OpInsert, U: u, V: v, P: p})
			if sel&2 != 0 {
				stage(ArcUpdate{Op: OpDelete, U: u, V: v})
			}
		case sel&1 != 0:
			stage(ArcUpdate{Op: OpReweight, U: u, V: v, P: p})
			if sel&2 != 0 {
				stage(ArcUpdate{Op: OpReweight, U: u, V: v, P: cur})
			}
		default:
			stage(ArcUpdate{Op: OpDelete, U: u, V: v})
			if sel&2 != 0 {
				stage(ArcUpdate{Op: OpInsert, U: u, V: v, P: cur})
			}
		}
	}
	return g, d, ups
}

// FuzzDeltaCompact checks Compact against a Builder rebuild bit for bit,
// the reversed overlay against the reverse of the compacted graph, and
// SameDegrees against the compacted graph. Every vertex outside
// NetChangedHeads must keep a bit-identical reversed out-row, even when
// staged arcs into it net out. A BoundedDistances over the new graph
// alone must equal the run over both graphs at every depth, from the
// net-changed heads (the update plane's seed set), whatever the batch
// deletes.
func FuzzDeltaCompact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d, ups := fuzzDeltaInput(t, data)
		if g == nil {
			return
		}
		got := d.Compact()
		validateGraph(t, got)
		sameGraph(t, got, rebuildWithUpdates(t, g, ups))
		sameGraph(t, d.Reversed(g.Reverse()).Compact(), got.Reverse())
		for lo := 0; lo <= g.NumVertices(); lo++ {
			same := true
			for hi := lo; hi <= g.NumVertices(); hi++ {
				if got.SameDegrees(g, lo, hi) != same {
					t.Fatalf("SameDegrees(%d, %d) = %v, want %v", lo, hi, !same, same)
				}
				same = same && hi < g.NumVertices() && g.OutDegree(hi) == got.OutDegree(hi)
			}
		}
		heads := d.NetChangedHeads()
		oldRev, newRev := g.Reverse(), got.Reverse()
		for v := 0; v < g.NumVertices(); v++ {
			if _, changed := slices.BinarySearch(heads, int32(v)); changed {
				continue
			}
			ps, qs := oldRev.OutProbs(v), newRev.OutProbs(v)
			same := slices.Equal(oldRev.Out(v), newRev.Out(v)) && len(ps) == len(qs)
			for i := 0; same && i < len(ps); i++ {
				same = math.Float64bits(ps[i]) == math.Float64bits(qs[i])
			}
			if !same {
				t.Fatalf("vertex %d is not a net-changed head, yet its reversed out-row went from %v %v to %v %v",
					v, oldRev.Out(v), ps, newRev.Out(v), qs)
			}
		}
		for depth := 0; depth <= g.NumVertices(); depth++ {
			both, alone := BoundedDistances(heads, depth, g, got), BoundedDistances(heads, depth, got)
			if !slices.Equal(both, alone) {
				t.Fatalf("depth %d from %v: new graph alone %v, both graphs %v", depth, heads, alone, both)
			}
		}
	})
}
