package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"usimrank"
	"usimrank/internal/gen"
	"usimrank/internal/rng"
)

// The benchmark's graphs and exact probe references are generated once
// by `perfbench -mkinputs <dir>` and committed under inputs/, so a change
// to the generators or to the exact kernel cannot change what is
// measured or what the served scores are compared against.

// graphSpec describes one stored input graph and how it was generated.
type graphSpec struct {
	Name      string `json:"name"`
	File      string `json:"file"`
	Generator string `json:"generator"`
	Vertices  int    `json:"vertices"`
	Arcs      int    `json:"arcs"`
	SHA256    string `json:"sha256"` // of the uncompressed text
}

// probe is one pair with its exact similarity.
type probe struct {
	U     int     `json:"u"`
	V     int     `json:"v"`
	Exact float64 `json:"exact"`
}

// reference is inputs/reference.json: every graph with its probe set.
type reference struct {
	Note   string             `json:"note"`
	C      float64            `json:"c"`
	Steps  int                `json:"steps"`
	Graphs []graphSpec        `json:"graphs"`
	Probes map[string][]probe `json:"probes"`
}

const (
	refC     = 0.6
	refSteps = 5
	// probeCount pairs keep score_err's spread across server seeds (a
	// legitimate change of random stream) inside its bound.
	probeCount      = 96
	probeCandidates = 1000
	// baselineBudget skips a candidate whose exact enumeration runs
	// longer; maxSkips bounds the abandoned (uncancellable) computations.
	baselineBudget = 5 * time.Second
	maxSkips       = 4
)

func makeInputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// probeMin keeps only pairs whose exact score is far above the
	// ~5e-4 of a random pair, where an error figure means nothing. On
	// R-MAT it sits above the 1/sqrt(N) = 0.032 noise floor of N=1000;
	// the coauthorship graphs have no such pairs within Baseline's
	// reach (leaf pairs score ~0.025), so they take the best available.
	// maxShared skips shared in-neighbours of higher in-degree, through
	// which the exact walk enumeration explodes.
	type spec struct {
		name, generator string
		probeMin        float64
		maxShared       int
		build           func() *usimrank.Graph
	}
	specs := []spec{
		{"rmat12", "gen.RMAT(12, 16384, 0.45, 0.20, 0.20) + WithUniformProbs(0.2, 0.9), rng seed 12", 0.05, 30, func() *usimrank.Graph {
			r := rng.New(12)
			return gen.WithUniformProbs(gen.RMAT(12, 16384, 0.45, 0.20, 0.20, r), 0.2, 0.9, r)
		}},
		{"coauth10k", "gen.CoAuthorship(10000, 2), rng seed 5", 0.02, 12, func() *usimrank.Graph {
			return gen.CoAuthorship(10_000, 2, rng.New(5))
		}},
		{"coauth3k", "gen.CoAuthorship(3000, 2), rng seed 3", 0.02, 12, func() *usimrank.Graph {
			return gen.CoAuthorship(3_000, 2, rng.New(3))
		}},
	}
	ref := reference{
		Note:   "exact = Baseline (paper Sec. VI-A, exact meeting probabilities) at c and steps below; computed once, never by the code under test",
		C:      refC,
		Steps:  refSteps,
		Probes: map[string][]probe{},
	}
	for _, s := range specs {
		g := s.build()
		var text bytes.Buffer
		if err := usimrank.WriteText(&text, g); err != nil {
			return err
		}
		sum := sha256.Sum256(text.Bytes())
		file := s.name + ".txt.gz"
		if err := writeGzip(filepath.Join(dir, file), text.Bytes()); err != nil {
			return err
		}
		probes, err := findProbes(g, s.probeMin, s.maxShared)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(os.Stderr, "%s: %d vertices, %d arcs, %d probes (min exact %.4f)\n",
			s.name, g.NumVertices(), g.NumArcs(), len(probes), probes[len(probes)-1].Exact)
		ref.Graphs = append(ref.Graphs, graphSpec{
			Name: s.name, File: file, Generator: s.generator,
			Vertices: g.NumVertices(), Arcs: g.NumArcs(), SHA256: hex.EncodeToString(sum[:]),
		})
		ref.Probes[s.name] = probes
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "reference.json"), append(out, '\n'), 0o644)
}

// findProbes returns probeCount pairs of vertices of in-degree ≤ 2 that
// share an in-neighbour and whose exact Baseline score is at least
// probeMin, highest first. Candidates are tried in the order of a cheap
// first-meeting heuristic, which also keeps Baseline where it finishes
// quickly.
func findProbes(g *usimrank.Graph, probeMin float64, maxShared int) ([]probe, error) {
	e, err := usimrank.New(g, usimrank.Options{C: refC, Steps: refSteps, N: 1000, Seed: 1, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	rev := g.Reverse()
	type cand struct {
		u, v int
		h    float64
	}
	var cands []cand
	seen := map[[2]int]bool{}
	for w := 0; w < g.NumVertices(); w++ {
		outs, ps := g.Out(w), g.OutProbs(w)
		if len(rev.Out(w)) > maxShared {
			continue
		}
		for i := 0; i < len(outs); i++ {
			for j := i + 1; j < len(outs); j++ {
				u, v := int(outs[i]), int(outs[j])
				if u > v {
					u, v = v, u
				}
				du, dv := len(rev.Out(u)), len(rev.Out(v))
				if u == v || du > 2 || dv > 2 || seen[[2]int{u, v}] {
					continue
				}
				seen[[2]int{u, v}] = true
				cands = append(cands, cand{u, v, ps[i] * ps[j] / float64(du*dv)})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].h != cands[b].h {
			return cands[a].h > cands[b].h
		}
		if cands[a].u != cands[b].u {
			return cands[a].u < cands[b].u
		}
		return cands[a].v < cands[b].v
	})
	var out []probe
	skips := 0
	for i, c := range cands {
		if i == probeCandidates || skips == maxSkips || len(out) == probeCount {
			break
		}
		type exact struct {
			s   float64
			err error
		}
		done := make(chan exact, 1)
		go func() {
			s, err := e.Baseline(c.u, c.v)
			done <- exact{s, err}
		}()
		var s float64
		select {
		case x := <-done:
			if x.err != nil {
				return nil, x.err
			}
			s = x.s
		case <-time.After(baselineBudget):
			// Baseline cannot be cancelled: the computation is left to
			// finish in the background and its pair is skipped.
			fmt.Fprintf(os.Stderr, "  baseline (%d,%d) over %v, skipped\n", c.u, c.v, baselineBudget)
			skips++
			continue
		}
		if s >= probeMin {
			out = append(out, probe{c.u, c.v, s})
		}
	}
	if len(out) < probeCount {
		return nil, fmt.Errorf("only %d probe pairs score >= %v", len(out), probeMin)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Exact > out[b].Exact })
	return out[:probeCount], nil
}

func writeGzip(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestCompression)
	zw.ModTime = time.Unix(0, 0) // reproducible bytes
	if _, err := zw.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadReference(dir string) (*reference, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "reference.json"))
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

func (r *reference) graph(name string) (graphSpec, error) {
	for _, g := range r.Graphs {
		if g.Name == name {
			return g, nil
		}
	}
	return graphSpec{}, fmt.Errorf("reference.json has no graph %q", name)
}

// arcList is the benchmark's own view of a stored graph: enough to draw
// update arcs, parsed without the program's readers.
type arcList struct {
	n    int
	u, v []int
	p    []float64
}

// unpackGraph decompresses a stored graph into dst (a text graph file
// the servers load), checks its digest, and parses its arcs.
func unpackGraph(inputs string, spec graphSpec, dst string) (*arcList, error) {
	f, err := os.Open(filepath.Join(inputs, spec.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.File, err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.File, err)
	}
	sum := sha256.Sum256(text)
	if hex.EncodeToString(sum[:]) != spec.SHA256 {
		return nil, fmt.Errorf("%s: digest mismatch", spec.File)
	}
	if err := os.WriteFile(dst, text, 0o644); err != nil {
		return nil, err
	}
	return parseArcs(text)
}

func parseArcs(text []byte) (*arcList, error) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	a := &arcList{n: -1}
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("bad graph line %q", sc.Text())
		}
		if a.n < 0 {
			n, err := strconv.Atoi(f[1])
			if f[0] != "ug" || err != nil {
				return nil, fmt.Errorf("bad graph header %q", sc.Text())
			}
			a.n = n
			continue
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		p, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad arc line %q", sc.Text())
		}
		a.u, a.v, a.p = append(a.u, u), append(a.v, v), append(a.p, p)
	}
	if a.n < 0 {
		return nil, fmt.Errorf("empty graph")
	}
	return a, sc.Err()
}
