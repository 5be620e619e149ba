package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"usimrank/internal/cluster"
)

var bg = context.Background()

// windowMetrics are the end-to-end figures of one measured window.
type windowMetrics struct {
	ops        int
	elapsed    time.Duration
	throughput float64 // ops per second
	p50, tail  float64 // ms
	tailQ      float64 // percentile reported as tail
	samples    int
	visible    float64 // ms until the result is visible to its client
	cpuPerOp   float64 // ms of server CPU per op
	delivered  float64 // CPU share the host delivered over the window
	note       string

	reads   readResult
	batches []*updateBatch
	pushes  []push
}

// sliceLen is the length of the slices a read window is cut into; read
// figures are medians over the slices, so bursts of host interference
// shorter than half the window do not move them.
const sliceLen = time.Second

func (b *bench) window() time.Duration { return time.Duration(b.cfg.seconds) * time.Second }

// runWindow runs the workload's measured window of the given length.
// phase numbers the windows of one run, so each draws fresh updates.
func (b *bench) runWindow(f *fleet, tr *tracer, window time.Duration, sampleEvery, phase int) (windowMetrics, error) {
	if b.w.mix != nil {
		return b.readWindow(f, tr, window, sampleEvery)
	}
	return b.writeWindow(f, tr, window, phase)
}

// readWindow runs the closed-loop read mix for the window. sampleEvery
// keeps every n-th request with its answer (0: the cluster check's
// default).
func (b *bench) readWindow(f *fleet, tr *tracer, window time.Duration, sampleEvery int) (windowMetrics, error) {
	var m windowMetrics
	if sampleEvery == 0 && b.w.shards > 0 {
		sampleEvery = 50
	}
	gen := newMixGen(b.cfg.seed, b.arcs.n)
	// Server CPU is read at every slice boundary while the loop runs.
	slices := max(int(window/sliceLen), 1)
	slice := window / time.Duration(slices)
	ticks := make([]int64, slices+1)
	clocks := make([]cpuClock, slices+1)
	var cpuErr error
	sampled := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(sampled)
		for k := range ticks {
			if k > 0 {
				time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
			}
			t, err := fleetCPU(f.all())
			if err != nil {
				cpuErr = err
			}
			ticks[k], clocks[k] = t, readCPUClock()
		}
	}()
	res := closedLoop(newClient(b.clients), f.entry().url, b.clients, window,
		func(int) *request { return b.w.mix(gen) }, sampleEvery, tr)
	<-sampled
	if cpuErr != nil {
		return m, cpuErr
	}
	b.out.Attempted += res.attempted
	b.out.Failed += res.failed
	for _, e := range res.errs {
		b.errs = append(b.errs, e)
	}
	if len(res.lats) == 0 {
		return m, fmt.Errorf("no query succeeded")
	}
	m.reads = res
	m.ops = len(res.lats)
	m.elapsed = res.elapsed
	// Every figure is the median over the slices of the window, so a
	// burst of host interference in one slice does not move it.
	perSlice := make([][]float64, slices)
	for i, d := range res.done {
		k := min(int(d/slice), slices-1)
		perSlice[k] = append(perSlice[k], res.lats[i])
	}
	// The tail percentile is the one a typical (median) slice supports.
	var counts []float64
	for _, xs := range perSlice {
		counts = append(counts, float64(len(xs)))
	}
	m.samples = int(median(sorted(counts)))
	m.tailQ, _ = tail(sorted(res.lats[:m.samples]))
	// Wall-clock figures are scaled to the CPU share a the host
	// delivered in their slice (see delivered): throughput divided by a,
	// the median multiplied by a, and the tail by a². The tail is where
	// the host's stalls land: a stalled query is late, and so is the
	// one queued behind it. Across ten runs at a = 0.72..1.0, raw
	// closed-loop tails grew as 1/a², medians as 1/a.
	var qps, p50, tails, cpu, rawP50, rawTail []float64
	for k, xs := range perSlice {
		a := delivered(clocks[k], clocks[k+1])
		qps = append(qps, float64(len(xs))/slice.Seconds()/a)
		if len(xs) == 0 {
			continue // a stalled slice has no latency, only a zero rate
		}
		s := sorted(xs)
		t := percentileOrMedian(s, m.tailQ)
		rawP50, rawTail = append(rawP50, median(s)), append(rawTail, t)
		p50 = append(p50, median(s)*a)
		tails = append(tails, t*a*a)
		cpu = append(cpu, ticksToMs(ticks[k+1]-ticks[k])/float64(len(s)))
	}
	m.throughput = median(sorted(qps))
	m.p50 = median(sorted(p50))
	m.tail = median(sorted(tails))
	m.visible = m.p50 // a read's answer is visible when it arrives
	m.cpuPerOp = median(sorted(cpu))
	m.delivered = delivered(clocks[0], clocks[slices])
	m.note = fmt.Sprintf(", raw p50 %.3f ms, raw p%g %.3f ms at %.1f qps",
		median(sorted(rawP50)), m.tailQ, median(sorted(rawTail)), float64(m.ops)/res.elapsed.Seconds())
	if b.w.shards > 0 && tr == nil {
		b.checkShardIdentity(f, res.sampled)
	}
	return m, nil
}

// checkShardIdentity re-sends sampled coordinator requests straight to
// the shard owning their (first) source: the bodies must be
// byte-identical.
func (b *bench) checkShardIdentity(f *fleet, sampled []sampledReply) {
	sm, err := cluster.NewShardMap(len(f.nodes), nil)
	if err != nil {
		b.fail(err)
		return
	}
	for _, s := range sampled {
		u := s.req.u
		if s.req.path == "/v1/batch" {
			u = s.req.pairs[0][0]
		}
		b.out.Attempted++
		status, _, body, err := post(bg, b.ctl, f.nodes[sm.Of(u)].url, s.req.path, s.req.body)
		switch {
		case err != nil:
			b.fail(err)
		case status != http.StatusOK || !bytes.Equal(body, s.body):
			b.fail(fmt.Errorf("shard answer to %s %s differs from the coordinator's", s.req.path, s.req.body))
		}
	}
}

// writeWindow runs the open-loop update schedule with one subscription
// open, then checks the final generation and the last push.
func (b *bench) writeWindow(f *fleet, tr *tracer, window time.Duration, phase int) (windowMetrics, error) {
	var m windowMetrics
	ws := b.w.write
	url := f.entry().url
	var st statsGraph
	if err := getJSON(b.ctl, url+"/v1/stats", &st); err != nil {
		return m, err
	}
	subReq := b.w.subRequest(b.cfg.seed, b.arcs)
	sub, err := subscribe(url, subReq.subscribeQuery())
	if err != nil {
		return m, err
	}
	defer sub.close()
	bodies := updateBodies(b.cfg.seed, b.arcs, ws, max(int(window/ws.interval), 1), phase)
	cpu0, err := fleetCPU(f.all())
	if err != nil {
		return m, err
	}
	clock0 := readCPUClock()
	start := time.Now().Add(20 * time.Millisecond)
	bs := openLoopWrites(newClient(1), url, start, ws.interval, bodies, tr)
	var lats []float64
	var lastAck time.Time
	for _, u := range bs {
		b.out.Attempted++
		if u.err != nil {
			b.fail(u.err)
			continue
		}
		lats = append(lats, float64(u.acked.Sub(u.sched))/1e6)
		lastAck = u.acked
	}
	if len(lats) == 0 {
		return m, fmt.Errorf("no update succeeded")
	}
	finalGen := st.Graph.Generation + uint64(len(lats))
	b.out.Attempted++
	if !sub.waitGen(finalGen, 30*time.Second) {
		b.fail(fmt.Errorf("no push for generation %d", finalGen))
	}
	cpu1, err := fleetCPU(f.all())
	if err != nil {
		return m, err
	}
	m.delivered = delivered(clock0, readCPUClock())
	sub.mu.Lock()
	pushes, subErr := append([]push(nil), sub.pushes...), sub.err
	sub.mu.Unlock()
	if subErr != nil {
		b.fail(subErr)
	}
	b.checkGeneration(url, finalGen)
	if len(pushes) > 0 {
		b.checkLastPush(url, subReq, pushes[len(pushes)-1])
	}

	sl := sorted(lats)
	pl, coalesced := pushLags(bs, pushes)
	late, lateMax := lateness(bs)
	m.batches, m.pushes = bs, pushes
	m.ops = len(lats)
	m.samples = len(lats)
	m.elapsed = lastAck.Sub(start)
	m.throughput = float64(m.ops) / m.elapsed.Seconds()
	// Latencies are scaled to the CPU share the host delivered over the
	// window; the open-loop rate is the schedule's and is left alone.
	a := m.delivered
	m.p50 = median(sl) * a
	m.tailQ, m.tail = tail(sl)
	m.tail *= a
	if len(pl) > 0 {
		m.visible = median(pl) * a
	}
	m.cpuPerOp = ticksToMs(cpu1-cpu0) / float64(m.ops)
	m.note = fmt.Sprintf(", raw p50 %.3f ms, %d pushes, %d coalesced generations, generator late by %.2f ms mean / %.2f ms max",
		median(sl), len(pushes), coalesced, late, lateMax)
	if len(pl) > 0 {
		q, v := tail(pl)
		m.note += fmt.Sprintf(", push lag p%g %.2f ms", q, v)
	}
	return m, nil
}

type statsGraph struct {
	Graph struct {
		Generation uint64 `json:"generation"`
	} `json:"graph"`
}

// checkGeneration: the final generation must be 1 + batches applied.
func (b *bench) checkGeneration(url string, want uint64) {
	b.out.Attempted++
	var st statsGraph
	if err := getJSON(b.ctl, url+"/v1/stats", &st); err != nil {
		b.fail(err)
	} else if st.Graph.Generation != want {
		b.fail(fmt.Errorf("final generation %d, want %d", st.Graph.Generation, want))
	}
}

// checkLastPush: the last pushed body must equal a cold POST of the same
// query at the same generation.
func (b *bench) checkLastPush(url string, r *request, last push) {
	b.out.Attempted++
	status, hdr, body, err := post(bg, b.ctl, url, r.path, r.body)
	switch {
	case err != nil:
		b.fail(err)
	case status != http.StatusOK:
		b.fail(fmt.Errorf("cold %s: status %d", r.path, status))
	case hdr.Get("Usimrank-Generation") != strconv.FormatUint(last.gen, 10):
		b.fail(fmt.Errorf("cold query at generation %s, last push at %d", hdr.Get("Usimrank-Generation"), last.gen))
	case !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(last.data)):
		b.fail(fmt.Errorf("last push differs from the cold answer at generation %d", last.gen))
	}
}

func getJSON(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// scoreErr sends the graph's probe pairs through every probe algorithm
// and returns the mean absolute error against the exact references.
func (b *bench) scoreErr(f *fleet) (float64, error) {
	probes := b.ref.Probes[b.w.graph]
	var diffs []float64
	for _, alg := range b.w.probeAlgs {
		var reqs []*request
		var exact [][]float64
		if alg == "indexed" {
			// One source query per distinct u, against its probe partners.
			var us []int
			vs, ex := map[int][]int{}, map[int][]float64{}
			for _, p := range probes {
				if _, ok := vs[p.U]; !ok {
					us = append(us, p.U)
				}
				vs[p.U] = append(vs[p.U], p.V)
				ex[p.U] = append(ex[p.U], p.Exact)
			}
			for _, u := range us {
				reqs = append(reqs, sourceReq(alg, u, vs[u]))
				exact = append(exact, ex[u])
			}
		} else {
			pairs := make([][2]int, len(probes))
			ex := make([]float64, len(probes))
			for i, p := range probes {
				pairs[i], ex[i] = [2]int{p.U, p.V}, p.Exact
			}
			reqs, exact = []*request{batchReq(alg, pairs)}, [][]float64{ex}
		}
		for i, r := range reqs {
			b.out.Attempted++
			status, _, body, err := post(bg, b.ctl, f.entry().url, r.path, r.body)
			if err != nil {
				return 0, err
			}
			got, err := validate(r, status, body)
			if err != nil {
				b.fail(fmt.Errorf("probe: %w", err))
				continue
			}
			for j, s := range got {
				d := s - exact[i][j]
				if d < 0 {
					d = -d
				}
				diffs = append(diffs, d)
			}
		}
	}
	if len(diffs) == 0 {
		return 0, fmt.Errorf("no probe answered")
	}
	return mean(diffs), nil
}
