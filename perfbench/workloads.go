package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark traffic mix over one stored graph.
type workload struct {
	name  string
	graph string
	// indexN > 0 builds a reverse-walk index with that many samples at
	// set-up (with usim-index, timed as part of set-up) and serves it.
	indexN int
	// samples (N, 0 = the server default 1000), workers (0 = all CPUs)
	// and warm (-warm: SR-SP filter pools built at boot) configure every
	// node, and the in-process replica of the traced run.
	samples int
	workers int
	warm    bool
	// shards > 0 puts that many nodes behind one coordinator.
	shards int
	// mix draws the i-th read of a closed-loop workload (nil: writes).
	mix func(g *mixGen) *request
	// write describes an open-loop update workload (nil: reads).
	write *writeSpec
	// probeAlgs are the algorithms whose served scores are compared
	// against the exact probe references.
	probeAlgs []string
}

// writeSpec is an open-loop update schedule plus one subscription.
type writeSpec struct {
	arcsPerBatch int
	interval     time.Duration
	subAlg       string // algorithm of the subscribed source query
	subCands     int
	// reach, when set, limits updates to arcs whose head is reached
	// within reachDepth hops by a share of the vertices in [lo, hi]: the
	// share of rows an update invalidates, and so its cost. Without it a
	// single-arc update costs anywhere from a tenth to all of a full
	// rebuild, and a median over a few updates depends on the seed.
	reach [2]float64
}

// reachDepth is the invalidation horizon: Steps-1 forward hops at the
// servers' default of 5 steps.
const reachDepth = 4

// eligible lists the indexes of the arcs updates may touch.
func (ws *writeSpec) eligible(a *arcList) []int {
	var frac []float64
	if ws.reach != [2]float64{} {
		frac = reachShare(a, reachDepth)
	}
	var out []int
	for i := range a.u {
		if frac == nil || (frac[a.v[i]] >= ws.reach[0] && frac[a.v[i]] <= ws.reach[1]) {
			out = append(out, i)
		}
	}
	return out
}

// reachShare returns, for every vertex v, the share of vertices with a
// path of at most depth arcs to v (v included).
func reachShare(a *arcList, depth int) []float64 {
	in := make([][]int, a.n)
	for i := range a.u {
		in[a.v[i]] = append(in[a.v[i]], a.u[i])
	}
	mark := make([]int, a.n)
	out := make([]float64, a.n)
	for v := range out {
		mark[v] = v + 1
		frontier, seen := []int{v}, 1
		for d := 0; d < depth; d++ {
			var next []int
			for _, x := range frontier {
				for _, y := range in[x] {
					if mark[y] != v+1 {
						mark[y] = v + 1
						seen++
						next = append(next, y)
					}
				}
			}
			frontier = next
		}
		out[v] = float64(seen) / float64(a.n)
	}
	return out
}

var workloads = []*workload{
	{
		name:      "node-read",
		graph:     "rmat12",
		warm:      true,
		mix:       nodeReadMix,
		probeAlgs: []string{"sampling_v2", "twophase", "srsp"},
	},
	{
		name:      "cluster-fanout",
		graph:     "rmat12",
		indexN:    128,
		samples:   128,
		workers:   1,
		shards:    2,
		mix:       clusterMix,
		probeAlgs: []string{"sampling_v2", "indexed"},
	},
	{
		name:      "write-push",
		graph:     "coauth10k",
		warm:      true,
		write:     &writeSpec{arcsPerBatch: 16, interval: 150 * time.Millisecond, subAlg: "twophase", subCands: 32},
		probeAlgs: []string{"twophase"},
	},
	{
		name:      "index-patch",
		graph:     "coauth3k",
		indexN:    1000,
		write:     &writeSpec{arcsPerBatch: 1, interval: 3 * time.Second, subAlg: "indexed", subCands: 32, reach: [2]float64{0.28, 0.32}},
		probeAlgs: []string{"indexed"},
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// mixGen draws read requests: Zipf-skewed sources (and twophase/srsp
// partners), uniform elsewhere.
type mixGen struct {
	r *rng64
	z *zipf
	n int
}

const (
	// zipfS is the Zipf exponent of the skewed draws.
	zipfS = 1.0
	// rankSeed fixes which vertices are hot. On R-MAT the cost of a
	// query swings by orders of magnitude with its source, so a hot set
	// drawn from the workload seed would make the workload's cost
	// depend on the seed; the seed draws the stream, not the hot set.
	rankSeed = 0x2a7e
)

func newMixGen(seed uint64, n int) *mixGen {
	return &mixGen{r: newRNG(seed, 1), z: newZipf(n, zipfS, newRNG(rankSeed, 0)), n: n}
}

func (g *mixGen) hot() int { return g.z.sample(g.r) }

// hotOther draws a Zipf vertex different from u.
func (g *mixGen) hotOther(u int) int {
	for {
		if v := g.hot(); v != u {
			return v
		}
	}
}

func (g *mixGen) uniformOther(u int) int {
	for {
		if v := g.r.intn(g.n); v != u {
			return v
		}
	}
}

// nodeReadMix: 45% score sampling_v2, 15% score twophase, 10% score
// srsp, 30% sampling_v2 source against 32 candidates.
func nodeReadMix(g *mixGen) *request {
	x := g.r.float()
	u := g.hot()
	switch {
	case x < 0.45:
		return scoreReq("sampling_v2", u, g.uniformOther(u))
	case x < 0.60:
		return scoreReq("twophase", u, g.hotOther(u))
	case x < 0.70:
		return scoreReq("srsp", u, g.hotOther(u))
	default:
		return sourceReq("sampling_v2", u, distinct(g.r, g.n, 32, u))
	}
}

// clusterMix: 50% sampling_v2 batches of 16 pairs with Zipf sources
// (scattered to both shards and merged), 50% indexed source against 64
// candidates (passed through to the owning shard).
func clusterMix(g *mixGen) *request {
	if g.r.float() < 0.5 {
		pairs := make([][2]int, 16)
		for i := range pairs {
			u := g.hot()
			pairs[i] = [2]int{u, g.uniformOther(u)}
		}
		return batchReq("sampling_v2", pairs)
	}
	u := g.hot()
	return sourceReq("indexed", u, distinct(g.r, g.n, 64, u))
}

// warmSeed fixes the warm-up request set, so set-up time never depends
// on the workload seed.
const warmSeed = 0x5eed

// warmRequests is the fixed warm-up set every set-up completes.
func (w *workload) warmRequests(a *arcList) []*request {
	g := newMixGen(warmSeed, a.n)
	var out []*request
	for i := 0; i < 16; i++ {
		if w.mix != nil {
			out = append(out, w.mix(g))
		} else {
			u := hub(a)
			out = append(out, sourceReq(w.write.subAlg, u, distinct(g.r, a.n, w.write.subCands, u)))
		}
	}
	return out
}

// hub is the vertex with the most incident arcs (lowest id on ties): the
// subscribed source of the write workloads, which every batch reaches.
func hub(a *arcList) int {
	deg := make([]int, a.n)
	for i := range a.u {
		deg[a.u[i]]++
		deg[a.v[i]]++
	}
	best := 0
	for v, d := range deg {
		if d > deg[best] {
			best = v
		}
	}
	return best
}

// updateBodies draws the update batches of a write workload: each batch
// reweights arcsPerBatch distinct arcs to fresh probabilities, so every
// batch is a real change and none can fail. Arcs come from ws.eligible.
func updateBodies(seed uint64, a *arcList, ws *writeSpec, batches, phase int) [][]byte {
	r := newRNG(seed, uint64(16+phase))
	arcs := ws.eligible(a)
	out := make([][]byte, batches)
	for k := range out {
		picked := map[int]bool{}
		ups := make([]map[string]any, 0, ws.arcsPerBatch)
		for len(ups) < ws.arcsPerBatch {
			i := arcs[r.intn(len(arcs))]
			if picked[i] {
				continue
			}
			picked[i] = true
			p := 0.05 + 0.95*r.float()
			ups = append(ups, map[string]any{"op": "reweight", "u": a.u[i], "v": a.v[i], "p": p})
		}
		out[k] = mustJSON(map[string]any{"updates": ups})
	}
	return out
}

// subRequest is the source query the write workloads subscribe to.
func (w *workload) subRequest(seed uint64, a *arcList) *request {
	r := newRNG(seed, 3)
	u := hub(a)
	return sourceReq(w.write.subAlg, u, distinct(r, a.n, w.write.subCands, u))
}

// fleet is the set of server processes of one set-up.
type fleet struct {
	nodes []*proc
	coord *proc
}

// entry is where the load goes: the coordinator, or the only node.
func (f *fleet) entry() *proc {
	if f.coord != nil {
		return f.coord
	}
	return f.nodes[0]
}

func (f *fleet) all() []*proc {
	out := append([]*proc(nil), f.nodes...)
	if f.coord != nil {
		out = append(out, f.coord)
	}
	return out
}

// stop stops every process, coordinator first, and waits for each.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.coord.stop()
	for _, p := range f.nodes {
		p.stop()
	}
}

// start builds the index (if any), boots the fleet and waits until every
// server answers /healthz.
func (b *bench) start(w *workload, tag string) (*fleet, error) {
	args := []string{"-graph", b.graphPath}
	if w.samples > 0 {
		args = append(args, "-N", strconv.Itoa(w.samples))
	}
	if w.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(w.workers))
	}
	if w.warm {
		args = append(args, "-warm")
	}
	seedArgs := []string{}
	if b.cfg.serverSeed != 0 {
		seedArgs = []string{"-seed", strconv.FormatUint(b.cfg.serverSeed, 10)}
	}
	args = append(args, seedArgs...)
	if w.indexN > 0 {
		idx := filepath.Join(b.dir, "index.usix")
		cmd := exec.Command(filepath.Join(b.cfg.bin, "usim-index"), append([]string{"-graph", b.graphPath, "-N", strconv.Itoa(w.indexN), "-out", idx}, seedArgs...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("usim-index: %v: %s", err, out)
		}
		args = append(args, "-index", idx)
	}
	f := &fleet{}
	usimd := filepath.Join(b.cfg.bin, "usimd")
	for i := 0; i < max(1, w.shards); i++ {
		name := fmt.Sprintf("node%d", i)
		p, err := startServer(name, usimd, filepath.Join(b.dir, tag+"-"+name+".log"), args)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, p)
	}
	for _, p := range f.nodes {
		if err := p.waitHealthy(b.ctl, time.Minute); err != nil {
			f.stop()
			return nil, err
		}
	}
	if w.shards > 0 {
		var eps []string
		for i, p := range f.nodes {
			eps = append(eps, fmt.Sprintf("shard%d=%s", i, p.url))
		}
		p, err := startServer("coord", usimd, filepath.Join(b.dir, tag+"-coord.log"), []string{"-cluster", strings.Join(eps, ",")})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.coord = p
		if err := p.waitHealthy(b.ctl, time.Minute); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}
