package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"usimrank"
	"usimrank/internal/cluster"
	"usimrank/internal/server"
	"usimrank/internal/sub"
	"usimrank/internal/ugraph"
)

// The traced run measures the same workload twice, half the window
// each: untraced, then with a span around every socket call. It then
// replays the traced requests one at a time through the public
// functions of each layer, inside this process, with spans around each
// call:
//
//	wire                 the same request over the socket, unloaded
//	  server.handler     Server.ServeHTTP of an identically configured replica
//	    core.* / index.* the engine or index call the request maps to
//	  cluster.coordinator  Coordinator.ServeHTTP over in-process shards
//	    server.handler     each shard's ServeHTTP, inside the coordinator call
//	  server.update      Server.ApplyUpdates (write workloads)
//	    core.apply       Engine.ApplyUpdates, with ugraph.apply / ugraph.bfs
//	    index.patch      PatchIndex
//	    sub.wake         Registry.Wake against a large fixed registry
//	sub.push             the cold query a push recomputes, through the replica
//	  core.* / index.*   its engine or index call
//
// Calls that are replayed next to, not inside, their parent (the engine
// call of a request, the ugraph calls of an update) are its logical
// children: a span's self time is its duration minus the union of its
// children's intervals, floored at zero. Layer shares divide the self
// times of all spans except wire spans and sub.wake (whose registry is
// synthetic). mc (the walk kernel) and core (the engine around it) are
// one call from outside, so they share one layer.

// traceSample keeps every traceSample-th traced request for replay, up
// to replayCap requests.
const (
	traceSample = 4
	replayCap   = 300
	// wakeSubs is the size of the registry sub.wake is measured against.
	wakeSubs = 10_000
)

var quiet = log.New(io.Discard, "", 0)

// replica is the in-process copy of the served state.
type replica struct {
	g   *usimrank.Graph
	eng *usimrank.Engine
	idx *usimrank.Index
	srv *server.Server
	opt usimrank.Options
}

func (b *bench) engineOptions() usimrank.Options {
	seed := b.cfg.serverSeed
	if seed == 0 {
		seed = 1
	}
	n := b.w.samples
	if n == 0 {
		n = 1000
	}
	return usimrank.Options{C: 0.6, Steps: 5, N: n, L: 1, Seed: seed, Parallelism: b.w.workers}
}

// traced is the --trace 1 run: per-layer metrics only.
func (b *bench) traced() error {
	f, _, err := b.setup(1)
	if err != nil {
		return err
	}
	defer f.stop()

	var g *usimrank.Graph
	var loads []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if g, err = usimrank.LoadGraphFile(b.graphPath); err != nil {
			return err
		}
		loads = append(loads, msSince(t))
	}
	b.set("ugraph.load_ms", median(sorted(loads)), "ms")
	rep := &replica{g: g, opt: b.engineOptions()}
	if rep.eng, err = usimrank.New(g, rep.opt); err != nil {
		return err
	}
	if b.w.warm {
		rep.eng.WarmFilters()
	}
	buildS := 0.0
	if b.w.indexN > 0 {
		t := time.Now()
		if rep.idx, err = usimrank.BuildIndex(rep.eng); err != nil {
			return err
		}
		buildS = time.Since(t).Seconds()
	}
	b.set("index.build_s", buildS, "s")
	if rep.srv, err = server.New(g, b.graphPath, server.Config{Engine: rep.opt, Index: rep.idx, Logger: quiet}); err != nil {
		return err
	}
	defer rep.srv.Close()
	if b.w.warm {
		rep.srv.WarmFilters()
	}

	half := b.window() / 2
	mA, err := b.runWindow(f, nil, half, 0, 0)
	if err != nil {
		return err
	}
	c0, err := b.scrape(f)
	if err != nil {
		return err
	}
	tr := newTracer()
	mB, err := b.runWindow(f, tr, half, traceSample, 1)
	if err != nil {
		return err
	}
	c1, err := b.scrape(f)
	if err != nil {
		return err
	}
	d := c1.minus(c0)
	b.set("trace.overhead_frac", (mB.p50-mA.p50)/mA.p50, "frac")

	lt := &layerTally{walks: map[int64]uint64{}, units: map[int64]int{}}
	if b.w.mix != nil {
		err = b.replayReads(rep, f, tr, lt, mB.reads.sampled)
	} else {
		err = b.replayWrites(rep, tr, lt, mB)
	}
	if err != nil {
		return err
	}
	b.layerMetrics(tr, lt, d, mB)
	return nil
}

// layerTally collects what the replay learns beside span times.
type layerTally struct {
	ops        int
	walks      map[int64]uint64 // engine span id -> kernel walks it ran
	units      map[int64]int    // engine span id -> candidates or pairs
	overheadMs []float64        // coordinator minus slowest direct shard
	evicted    int
	cached     int
	touched    []float64
	patched    []float64
	pushMs     []float64
}

// call runs the engine or index function a query maps to and returns
// its span name and work units (pairs or candidates).
func (rep *replica) call(r *request, eng *usimrank.Engine, idx *usimrank.Index) (string, int, error) {
	switch {
	case r.path == "/v1/score":
		alg, err := usimrank.ParseAlgorithm(r.alg)
		if err != nil {
			return "", 0, err
		}
		_, err = eng.Compute(alg, r.u, r.v)
		return "core.score." + r.alg, 1, err
	case r.path == "/v1/batch":
		alg, err := usimrank.ParseAlgorithm(r.alg)
		if err != nil {
			return "", 0, err
		}
		for _, res := range usimrank.Batch(eng, alg, r.pairs, rep.opt.Parallelism) {
			if res.Err != nil {
				return "", 0, res.Err
			}
		}
		return "core.score." + r.alg, len(r.pairs), nil
	case r.alg == "indexed":
		_, err := eng.SingleSourceIndexedAgainst(idx, r.u, r.cands)
		return "index.probe", len(r.cands), err
	default:
		alg, err := usimrank.ParseAlgorithm(r.alg)
		if err != nil {
			return "", 0, err
		}
		out := make([]float64, len(r.cands))
		return "core.source", len(r.cands), eng.SingleSourceAgainstInto(alg, r.u, r.cands, out)
	}
}

// engineSpan times rep.call as a child of parent.
func (rep *replica) engineSpan(tr *tracer, lt *layerTally, r *request, id, parent int64, eng *usimrank.Engine, idx *usimrank.Index) error {
	w0 := eng.KernelStats().Walks
	start := time.Now()
	name, units, err := rep.call(r, eng, idx)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("replay %s: %w", r.path, err)
	}
	sid := tr.record(name, id, parent, start, end)
	lt.walks[sid] = eng.KernelStats().Walks - w0
	lt.units[sid] = units
	return nil
}

// serve runs one request through an in-process handler.
func serve(h http.Handler, method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// shardSpans records the shard handler calls an in-process coordinator
// makes while one request is replayed (replay is sequential).
type shardSpans struct {
	mu    sync.Mutex
	calls []shardCall
}

type shardCall struct {
	shard      int
	start, end time.Time
}

func (s *shardSpans) wrap(shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if strings.HasPrefix(r.URL.Path, "/v1/") && r.URL.Path != "/v1/stats" {
			s.mu.Lock()
			s.calls = append(s.calls, shardCall{shard, start, time.Now()})
			s.mu.Unlock()
		}
	})
}

func (s *shardSpans) take() []shardCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.calls
	s.calls = nil
	return out
}

// split divides a coordinator request into the per-shard sub-requests a
// direct client would send, by the shard map's owner of each source.
func split(r *request, sm *cluster.ShardMap) map[int]*request {
	out := map[int]*request{}
	if r.path != "/v1/batch" {
		out[sm.Of(r.u)] = r
		return out
	}
	parts := map[int][][2]int{}
	for _, p := range r.pairs {
		s := sm.Of(p[0])
		parts[s] = append(parts[s], p)
	}
	for s, ps := range parts {
		out[s] = batchReq(r.alg, ps)
	}
	return out
}

// replayReads replays the sampled traced queries.
func (b *bench) replayReads(rep *replica, f *fleet, tr *tracer, lt *layerTally, sampled []sampledReply) error {
	sort.Slice(sampled, func(i, j int) bool { return sampled[i].i < sampled[j].i })
	if len(sampled) > replayCap {
		sampled = sampled[:replayCap]
	}
	var (
		co     *cluster.Coordinator
		sm     *cluster.ShardMap
		shards shardSpans
	)
	if b.w.shards > 0 {
		var eps [][]string
		for i := 0; i < b.w.shards; i++ {
			ts := httptest.NewServer(shards.wrap(i, rep.srv))
			defer ts.Close()
			eps = append(eps, []string{ts.URL})
		}
		var err error
		if co, err = cluster.New(cluster.Config{Shards: eps, Logger: quiet}); err != nil {
			return err
		}
		defer co.Close()
		if sm, err = cluster.NewShardMap(b.w.shards, nil); err != nil {
			return err
		}
		shards.take() // drop the coordinator's boot probes
	}
	for _, s := range sampled {
		r, id := s.req, int64(s.i+1)
		t0 := time.Now()
		status, _, body, err := post(bg, b.ctl, f.entry().url, r.path, r.body)
		t1 := time.Now()
		if err == nil {
			_, err = validate(r, status, body)
		}
		if err != nil {
			return fmt.Errorf("replay over the socket: %w", err)
		}
		wid := tr.record("wire", id, 0, t0, t1)
		lt.ops++
		if co == nil {
			var code int
			hid := tr.timed("server.handler", id, wid, func() { code, body = serve(rep.srv, http.MethodPost, r.path, r.body) })
			if code != http.StatusOK {
				return fmt.Errorf("replica %s: status %d: %.200s", r.path, code, body)
			}
			if err := rep.engineSpan(tr, lt, r, id, hid, rep.eng, rep.idx); err != nil {
				return err
			}
			continue
		}
		subs := split(r, sm)
		var slowest time.Duration
		for shard, sr := range subs {
			s0 := time.Now()
			status, _, body, err := post(bg, b.ctl, f.nodes[shard].url, sr.path, sr.body)
			s1 := time.Now()
			if err == nil {
				_, err = validate(sr, status, body)
			}
			if err != nil {
				return fmt.Errorf("direct shard request: %w", err)
			}
			tr.record("wire.shard", id, 0, s0, s1)
			slowest = max(slowest, s1.Sub(s0))
		}
		lt.overheadMs = append(lt.overheadMs, float64(t1.Sub(t0)-slowest)/1e6)
		var code int
		cid := tr.timed("cluster.coordinator", id, wid, func() { code, body = serve(co, http.MethodPost, r.path, r.body) })
		if code != http.StatusOK {
			return fmt.Errorf("in-process coordinator %s: status %d: %.200s", r.path, code, body)
		}
		hids := map[int]int64{}
		for _, c := range shards.take() {
			hids[c.shard] = tr.record("server.handler", id, cid, c.start, c.end)
		}
		for shard, sr := range subs {
			if err := rep.engineSpan(tr, lt, sr, id, hids[shard], rep.eng, rep.idx); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayWrites replays the traced update batches in order on a replica
// chain that starts from the stored graph, and the cold query each push
// recomputes.
func (b *bench) replayWrites(rep *replica, tr *tracer, lt *layerTally, m windowMetrics) error {
	reg, subs := wakeRegistry(b.cfg.seed, rep.g.NumVertices())
	defer func() {
		for _, s := range subs {
			reg.Unsubscribe(s)
		}
	}()
	subReq := b.w.subRequest(b.cfg.seed, b.arcs)
	pushAt := map[uint64]time.Time{}
	for _, p := range m.pushes {
		pushAt[p.gen] = p.at
	}
	eng, g, idx := rep.eng, rep.g, rep.idx
	n := float64(g.NumVertices())
	gen := uint64(1)
	for k, ub := range m.batches {
		if ub.err != nil {
			continue
		}
		if t, ok := pushAt[ub.gen]; ok {
			lt.pushMs = append(lt.pushMs, float64(t.Sub(ub.acked))/1e6)
		}
		ups, err := parseUpdates(ub.body)
		if err != nil {
			return err
		}
		id := int64(k + 1)
		lt.ops++
		gen++
		wid := tr.record("wire", id, 0, ub.sent, ub.acked)
		var uerr error
		uid := tr.timed("server.update", id, wid, func() { _, uerr = rep.srv.ApplyUpdates(ups) })
		if uerr != nil {
			return fmt.Errorf("replica update: %w", uerr)
		}
		var succ *usimrank.Engine
		var st *usimrank.UpdateStats
		aid := tr.timed("core.apply", id, uid, func() { succ, st, uerr = eng.ApplyUpdates(ups) })
		if uerr != nil {
			return fmt.Errorf("replay ApplyUpdates: %w", uerr)
		}
		lt.evicted += st.RowsEvicted
		lt.cached += st.RowsEvicted + st.RowsRetained
		lt.touched = append(lt.touched, float64(len(st.TouchedSources))/n)
		var g2 *usimrank.Graph
		tr.timed("ugraph.apply", id, aid, func() { g2, uerr = g.Apply(ups) })
		if uerr != nil {
			return fmt.Errorf("replay Graph.Apply: %w", uerr)
		}
		heads := make([]int32, 0, len(ups))
		for _, u := range ups {
			heads = append(heads, int32(u.V))
		}
		tr.timed("ugraph.bfs", id, aid, func() { ugraph.BoundedDistances(heads, rep.opt.Steps-1, g, g2) })
		if idx != nil {
			var rows int
			old := idx
			tr.timed("index.patch", id, uid, func() { idx, rows, uerr = usimrank.PatchIndex(old, succ, g, ups) })
			if uerr != nil {
				return fmt.Errorf("replay PatchIndex: %w", uerr)
			}
			lt.patched = append(lt.patched, float64(rows)/n)
		}
		tr.timed("sub.wake", id, uid, func() { reg.Wake(st.TouchedSources, gen) })
		for _, s := range subs {
			s.Claim()
			select {
			case <-s.Wait():
			default:
			}
		}
		eng, g = succ, g2

		// The push: the subscribed query recomputed at the new generation,
		// a request of its own (ids past every update's).
		pid := int64(len(m.batches) + k + 1)
		var code int
		var body []byte
		hid := tr.timed("sub.push", pid, 0, func() { code, body = serve(rep.srv, http.MethodPost, subReq.path, subReq.body) })
		if code != http.StatusOK {
			return fmt.Errorf("replica push query: status %d: %.200s", code, body)
		}
		if err := rep.engineSpan(tr, lt, subReq, pid, hid, eng, idx); err != nil {
			return err
		}
	}
	return nil
}

// wakeRegistry builds the fixed registry sub.wake is measured against:
// wakeSubs source subscriptions of 33 seeded vertices each.
func wakeRegistry(seed uint64, n int) (*sub.Registry, []*sub.Subscription) {
	r := newRNG(seed, 4)
	reg := sub.NewRegistry()
	subs := make([]*sub.Subscription, wakeSubs)
	for i := range subs {
		vs := make([]int32, 33)
		for j := range vs {
			vs[j] = int32(r.intn(n))
		}
		subs[i] = reg.Subscribe(vs, 0)
	}
	return reg, subs
}

func parseUpdates(body []byte) ([]usimrank.ArcUpdate, error) {
	var req server.UpdateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	out := make([]usimrank.ArcUpdate, len(req.Updates))
	for i, u := range req.Updates {
		op, err := usimrank.ParseUpdateOp(u.Op)
		if err != nil {
			return nil, err
		}
		out[i] = usimrank.ArcUpdate{Op: op, U: u.U, V: u.V, P: u.P}
	}
	return out, nil
}

// counters are the server-side counters scraped around the traced
// window.
type counters struct {
	rowHits, rowMisses         float64 // nodes, /metrics
	rowsProbed, residualWalks  float64 // nodes, /metrics
	coalesceHits, coalesceMiss float64 // entry, /metrics
	admissionRejected          float64
	pushes, wakeups, coalesced float64
	shardRequests, hedges      float64 // coordinator, /metrics
	nodeTicks, coordTicks      int64
}

func (c counters) minus(o counters) counters {
	return counters{
		rowHits: c.rowHits - o.rowHits, rowMisses: c.rowMisses - o.rowMisses,
		rowsProbed: c.rowsProbed - o.rowsProbed, residualWalks: c.residualWalks - o.residualWalks,
		coalesceHits: c.coalesceHits - o.coalesceHits, coalesceMiss: c.coalesceMiss - o.coalesceMiss,
		admissionRejected: c.admissionRejected - o.admissionRejected,
		pushes:            c.pushes - o.pushes, wakeups: c.wakeups - o.wakeups, coalesced: c.coalesced - o.coalesced,
		shardRequests: c.shardRequests - o.shardRequests, hedges: c.hedges - o.hedges,
		nodeTicks: c.nodeTicks - o.nodeTicks, coordTicks: c.coordTicks - o.coordTicks,
	}
}

func (b *bench) scrape(f *fleet) (counters, error) {
	var c counters
	for _, p := range f.nodes {
		m, err := promScrape(b.ctl, p.url)
		if err != nil {
			return c, err
		}
		c.rowHits += m["usimrank_row_cache_hits_total"]
		c.rowMisses += m["usimrank_row_cache_misses_total"]
		c.rowsProbed += m["usimrank_index_rows_probed_total"]
		c.residualWalks += m["usimrank_index_residual_walks_total"]
		t, err := cpuTicks(p.pid())
		if err != nil {
			return c, err
		}
		c.nodeTicks += t
	}
	m, err := promScrape(b.ctl, f.entry().url)
	if err != nil {
		return c, err
	}
	c.coalesceHits = m["usimrank_coalesce_hits_total"]
	c.coalesceMiss = m["usimrank_coalesce_misses_total"]
	c.admissionRejected = m["usimrank_admission_rejected_total"]
	c.pushes = m["usimrank_sub_pushes_total"]
	c.wakeups = m["usimrank_sub_wakeups_total"]
	c.coalesced = m["usimrank_sub_coalesced_total"]
	if f.coord != nil {
		c.shardRequests = m["usimrank_shard_requests_total"]
		c.hedges = m["usimrank_client_hedges_total"]
		if c.coordTicks, err = cpuTicks(f.coord.pid()); err != nil {
			return c, err
		}
	}
	return c, nil
}

// promScrape reads /metrics and sums every sample of each family.
func promScrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// selfTimes returns every span's duration minus the union of its
// children's intervals, floored at zero.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]time.Duration{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self := s.dur() - unionLen(kids[s.id])
		out[s.id] = max(self, 0)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// layers are the shares the traced run reports, by span-name prefix.
var layers = []string{"mc_core", "index", "ugraph", "server", "cluster", "sub"}

func layerOf(name string) string {
	if name == "sub.wake" {
		// Measured against the synthetic wakeSubs registry, not the
		// served one: a per-layer figure, not server time.
		return ""
	}
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "core":
		return "mc_core"
	case "index", "ugraph", "server", "cluster", "sub":
		return prefix
	}
	return "" // wire spans: not server time
}

// layerMetrics turns the replay spans and scraped counters into the
// per-layer metrics and prints the layer table.
func (b *bench) layerMetrics(tr *tracer, lt *layerTally, d counters, mB windowMetrics) {
	spans := tr.spans
	self := selfTimes(spans)
	type agg struct {
		n     int
		total time.Duration
		self  time.Duration
		units int
		walks uint64
	}
	by := map[string]*agg{}
	share := map[string]time.Duration{}
	var serverTime time.Duration
	for _, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.id]
		a.units += lt.units[s.id]
		a.walks += lt.walks[s.id]
		if l := layerOf(s.name); l != "" {
			share[l] += self[s.id]
			serverTime += self[s.id]
		}
	}
	meanUs := func(name string) float64 {
		if a := by[name]; a != nil && a.n > 0 {
			return float64(a.total) / float64(a.n) / 1e3
		}
		return 0
	}
	perUnitUs := func(name string) float64 {
		if a := by[name]; a != nil && a.units > 0 {
			return float64(a.total) / float64(a.units) / 1e3
		}
		return 0
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	var walkTime time.Duration
	var walks uint64
	for _, s := range spans {
		if w := lt.walks[s.id]; w > 0 {
			walkTime += s.dur()
			walks += w
		}
	}
	ops := float64(mB.ops)
	b.set("mc.ns_per_walk", ratio(float64(walkTime), float64(walks)), "ns")
	b.set("mc.walks_per_op", ratio(float64(walks), float64(lt.ops)), "count")
	for _, alg := range []string{"sampling_v2", "twophase", "srsp"} {
		b.set("core.score_us."+alg, perUnitUs("core.score."+alg), "us")
	}
	b.set("core.source_us_per_cand", perUnitUs("core.source"), "us")
	b.set("core.rowcache_hit_frac", ratio(d.rowHits, d.rowHits+d.rowMisses), "frac")
	b.set("core.apply_ms", meanUs("core.apply")/1e3, "ms")
	b.set("core.rows_evicted_frac", ratio(float64(lt.evicted), float64(lt.cached)), "frac")
	b.set("core.touched_sources_frac", mean(lt.touched), "frac")
	b.set("index.probe_us_per_cand", perUnitUs("index.probe"), "us")
	b.set("index.probe_ratio", ratio(d.rowsProbed, d.rowsProbed+d.residualWalks), "frac")
	b.set("index.patch_ms", meanUs("index.patch")/1e3, "ms")
	b.set("index.patch_rows_frac", mean(lt.patched), "frac")
	b.set("ugraph.apply_us", meanUs("ugraph.apply"), "us")
	b.set("ugraph.bfs_us", meanUs("ugraph.bfs"), "us")
	b.set("server.handler_us", meanUs("server.handler"), "us")
	if a := by["server.handler"]; a != nil {
		b.set("server.overhead_us", float64(a.self)/float64(a.n)/1e3, "us")
	} else {
		b.set("server.overhead_us", 0, "us")
	}
	b.set("server.wire_us", 0, "us")
	if a := by["wire"]; a != nil {
		b.set("server.wire_us", float64(a.self)/float64(a.n)/1e3, "us")
	}
	b.set("server.cpu_ms_per_op", ratio(ticksToMs(d.nodeTicks), ops), "ms")
	b.set("server.update_ms", meanUs("server.update")/1e3, "ms")
	b.set("server.coalesce_hit_frac", ratio(d.coalesceHits, d.coalesceHits+d.coalesceMiss), "frac")
	b.set("server.admission_rejected", d.admissionRejected, "count")
	b.set("cluster.cpu_ms_per_op", ratio(ticksToMs(d.coordTicks), ops), "ms")
	b.set("cluster.overhead_ms", mean(lt.overheadMs), "ms")
	b.set("cluster.shard_requests_per_query", ratio(d.shardRequests, ops), "count")
	b.set("cluster.hedges", d.hedges, "count")
	b.set("sub.wake_us", meanUs("sub.wake"), "us")
	b.set("sub.push_ms", mean(lt.pushMs), "ms")
	b.set("sub.pushes_per_update", ratio(d.pushes, ops), "count")
	b.set("sub.coalesced_frac", ratio(d.coalesced, d.coalesced+d.wakeups), "frac")
	for _, l := range layers {
		b.set("share."+l, ratio(float64(share[l]), float64(serverTime)), "frac")
	}

	fmt.Printf("%s seed=%d traced: %d ops replayed, %d spans, %d walks; untraced/traced p50 in the metrics as trace.overhead_frac\n",
		b.w.name, b.cfg.seed, lt.ops, len(spans), walks)
	fmt.Printf("  %-24s %8s %12s %12s %12s\n", "span", "count", "mean_us", "self_us", "share")
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := by[k]
		sh := ""
		if layerOf(k) != "" {
			sh = fmt.Sprintf("%.3f", ratio(float64(a.self), float64(serverTime)))
		}
		fmt.Printf("  %-24s %8d %12.1f %12.1f %12s\n", k, a.n, float64(a.total)/float64(a.n)/1e3, float64(a.self)/float64(a.n)/1e3, sh)
	}
	printMetrics(b.out.Metrics)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
