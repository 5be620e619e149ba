package server

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usimrank/internal/obs"
)

// latency histogram: base-2 buckets starting at 50µs. Bucket i covers
// (50µs·2^(i-1), 50µs·2^i]; the last bucket is open-ended. 28 buckets
// reach ~1.9 hours, far past any plausible query deadline.
const (
	histBuckets = 28
	histBaseUs  = 50
)

// histogram is a lock-free fixed-bucket latency histogram.
type histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	sumUs  atomic.Uint64
	maxUs  atomic.Uint64
}

// bucketFor maps a latency to its bucket in constant time: the bucket
// index is the bit length of ⌈us/50µs⌉-1, because base-2 bucket bounds
// make "first power of two ≥ ratio" exactly the bit length. Replaces a
// per-observation linear scan over the bounds; the exhaustive
// equivalence test in metrics_internal_test.go pins it to the old
// loop's answers across every bucket boundary.
func bucketFor(us int64) int {
	if us <= histBaseUs {
		return 0
	}
	b := bits.Len64((uint64(us)+histBaseUs-1)/histBaseUs - 1)
	if b > histBuckets-1 {
		return histBuckets - 1
	}
	return b
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.counts[bucketFor(us)].Add(1)
	h.total.Add(1)
	h.sumUs.Add(uint64(us))
	for {
		cur := h.maxUs.Load()
		if uint64(us) <= cur || h.maxUs.CompareAndSwap(cur, uint64(us)) {
			return
		}
	}
}

// quantile returns the upper bound (in ms) of the bucket holding the
// q-th fraction of observations, 0 when the histogram is empty.
func (h *histogram) quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	bound := int64(histBaseUs)
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			return float64(bound) / 1000
		}
		bound <<= 1
	}
	return float64(h.maxUs.Load()) / 1000
}

func (h *histogram) summary() LatencySummary {
	return LatencySummary{
		P50: h.quantile(0.50),
		P90: h.quantile(0.90),
		P99: h.quantile(0.99),
		Max: float64(h.maxUs.Load()) / 1000,
	}
}

// histLe precomputes the Prometheus le= boundary strings: bucket i's
// upper bound 50µs·2^i rendered in seconds, +Inf on the open-ended
// last bucket.
var histLe = func() [histBuckets]string {
	var out [histBuckets]string
	for i := 0; i < histBuckets-1; i++ {
		out[i] = strconv.FormatFloat(float64(int64(histBaseUs)<<i)/1e6, 'g', -1, 64)
	}
	out[histBuckets-1] = "+Inf"
	return out
}()

// expose writes h as one sample of histogram family f (cumulative
// counts at base-2 le bounds in seconds, then _sum and _count) and
// returns its /v1/stats digest.
func (h *histogram) expose(f obs.Family, labels []obs.Label) LatencySummary {
	var cum [histBuckets]uint64
	var c uint64
	for i := range cum {
		c += h.counts[i].Load()
		cum[i] = c
	}
	f.Histogram(labels, histLe[:], cum[:], float64(h.sumUs.Load())/1e6, h.total.Load())
	return h.summary()
}

// queryMetrics is one (shape, algorithm) cell.
type queryMetrics struct {
	count        atomic.Uint64
	errors       atomic.Uint64
	coalesceHits atomic.Uint64
	latency      histogram
}

// MetricsRegistry aggregates everything /v1/stats and /metrics report
// that the server itself owns (engine- and graph-level figures are
// read live at snapshot time). All counters are atomics. The cell map
// is an atomic pointer to an immutable map: the per-request lookup is
// lock-free, and only the first sighting of a (shape, alg) pair takes
// the mutex to publish a copy-on-write successor map — the cell set is
// bounded by shapes × algorithms, so writes stop once traffic has
// touched every combination.
type MetricsRegistry struct {
	mu    sync.Mutex                               // guards cell insertion (copy-on-write publish)
	cells atomic.Pointer[map[string]*queryMetrics] // key "shape/alg"

	InFlight          atomic.Int64
	AdmissionRejected atomic.Uint64
	DeadlineExceeded  atomic.Uint64
	// ClientGone counts requests abandoned by their client; they do not
	// feed the per-shape error counters (see Plane.Run).
	ClientGone atomic.Uint64
	// Adaptive serving-path counters (leaders only; see Server.account).
	AdaptiveQueries    atomic.Uint64
	PartialResults     atomic.Uint64
	AdaptiveRounds     atomic.Uint64
	AdaptiveEarlyStops atomic.Uint64

	coalesceHits   atomic.Uint64
	coalesceMisses atomic.Uint64
	shapeMu        sync.Mutex
	shapeHits      map[string]uint64
}

func NewMetricsRegistry() *MetricsRegistry {
	m := &MetricsRegistry{shapeHits: make(map[string]uint64)}
	empty := make(map[string]*queryMetrics)
	m.cells.Store(&empty)
	return m
}

func (m *MetricsRegistry) cell(shape, alg string) *queryMetrics {
	key := shape + "/" + alg
	if c, ok := (*m.cells.Load())[key]; ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.cells.Load()
	if c, ok := old[key]; ok {
		return c
	}
	next := make(map[string]*queryMetrics, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	c := &queryMetrics{}
	next[key] = c
	m.cells.Store(&next)
	return c
}

// RecordQuery folds one finished query into the registry.
func (m *MetricsRegistry) RecordQuery(shape, alg string, d time.Duration, coalesced bool, err error) {
	c := m.recordCell(shape, alg, d, err)
	if coalesced {
		c.coalesceHits.Add(1)
		m.coalesceHits.Add(1)
		m.shapeMu.Lock()
		m.shapeHits[shape]++
		m.shapeMu.Unlock()
	} else {
		m.coalesceMisses.Add(1)
	}
}

// RecordDownstream folds one downstream sub-request (the cluster
// coordinator's per-shard calls) into its own cell WITHOUT touching
// the coalescing counters: a scatter's N shard requests are the
// leader's implementation detail, and counting them as N coalesce
// misses would dilute the reported hit rate by the shard count.
func (m *MetricsRegistry) RecordDownstream(shape, alg string, d time.Duration, err error) {
	m.recordCell(shape, alg, d, err)
}

// CountError bumps a cell's error counter after the fact. The cluster
// coordinator uses it when a relayed downstream response turns out to
// carry an error status: the flight returned it as a plain value, so
// RecordQuery saw no error, but the client did receive one.
func (m *MetricsRegistry) CountError(shape, alg string) {
	m.cell(shape, alg).errors.Add(1)
}

func (m *MetricsRegistry) recordCell(shape, alg string, d time.Duration, err error) *queryMetrics {
	c := m.cell(shape, alg)
	c.count.Add(1)
	if err != nil {
		c.errors.Add(1)
	}
	c.latency.observe(d)
	return c
}

// isShardCellKey reports whether a cell key's first component is a
// coordinator downstream shard name ("shard<N>").
func isShardCellKey(first string) bool {
	if len(first) <= 5 || first[:5] != "shard" {
		return false
	}
	for i := 5; i < len(first); i++ {
		if first[i] < '0' || first[i] > '9' {
			return false
		}
	}
	return true
}

// Snapshot reads the registry once for both views and returns its
// /v1/stats sections. Each value is read on the line that declares its
// Prometheus family, which writes the family when pw is non-nil. Query
// cells become the usimrank_queries_total/usimrank_query_* families
// labeled {shape, alg}; cells recorded via RecordDownstream under a
// shard name (the coordinator's per-shard accounting) become the
// usimrank_shard_* families labeled {shard, shape}. Keys are emitted in
// sorted order so scrapes are stable and diffable. maxInFlight is the
// plane's admission bound, reported as serving.max_in_flight.
func (m *MetricsRegistry) Snapshot(pw *obs.PromWriter, maxInFlight int) (ServingStats, CoalescingStats, map[string]QueryStats) {
	cells := *m.cells.Load()
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		labels []obs.Label
		c      *queryMetrics
		st     *QueryStats
	}
	stats := make([]QueryStats, len(keys))
	var query, shard []row
	for i, k := range keys {
		first, second, _ := strings.Cut(k, "/")
		if isShardCellKey(first) {
			shard = append(shard, row{[]obs.Label{{Key: "shard", Value: first}, {Key: "shape", Value: second}}, cells[k], &stats[i]})
		} else {
			query = append(query, row{[]obs.Label{{Key: "shape", Value: first}, {Key: "alg", Value: second}}, cells[k], &stats[i]})
		}
	}

	if len(query) > 0 {
		f := pw.Family("usimrank_queries_total", "counter", "Completed queries by shape and algorithm.")
		for _, r := range query {
			r.st.Count = obs.Sample(f, r.labels, r.c.count.Load())
		}
		f = pw.Family("usimrank_query_errors_total", "counter", "Queries that returned an error.")
		for _, r := range query {
			r.st.Errors = obs.Sample(f, r.labels, r.c.errors.Load())
		}
		f = pw.Family("usimrank_query_coalesce_hits_total", "counter", "Queries served as coalesced followers.")
		for _, r := range query {
			r.st.CoalesceHits = obs.Sample(f, r.labels, r.c.coalesceHits.Load())
		}
		f = pw.Family("usimrank_query_latency_seconds", "histogram", "Query wall time (base-2 buckets from 50us).")
		for _, r := range query {
			r.st.LatencyMs = r.c.latency.expose(f, r.labels)
		}
	}
	// Downstream cells never coalesce (RecordDownstream), so their
	// CoalesceHits stays zero.
	if len(shard) > 0 {
		f := pw.Family("usimrank_shard_requests_total", "counter", "Downstream shard sub-requests by shard and shape.")
		for _, r := range shard {
			r.st.Count = obs.Sample(f, r.labels, r.c.count.Load())
		}
		f = pw.Family("usimrank_shard_request_errors_total", "counter", "Downstream shard sub-requests that failed.")
		for _, r := range shard {
			r.st.Errors = obs.Sample(f, r.labels, r.c.errors.Load())
		}
		f = pw.Family("usimrank_shard_request_latency_seconds", "histogram", "Downstream shard sub-request wall time.")
		for _, r := range shard {
			r.st.LatencyMs = r.c.latency.expose(f, r.labels)
		}
	}
	queries := make(map[string]QueryStats, len(keys))
	for i, k := range keys {
		queries[k] = stats[i]
	}

	// Go evaluates the literal's fields left to right: this is the
	// exposition order.
	serving := ServingStats{
		InFlight:           obs.Gauge(pw, "usimrank_in_flight", "Requests currently admitted and executing.", m.InFlight.Load()),
		AdmissionRejected:  obs.Counter(pw, "usimrank_admission_rejected_total", "Requests rejected by admission control (HTTP 429).", m.AdmissionRejected.Load()),
		DeadlineExceeded:   obs.Counter(pw, "usimrank_deadline_exceeded_total", "Queries that exceeded their deadline.", m.DeadlineExceeded.Load()),
		ClientGone:         obs.Counter(pw, "usimrank_client_gone_total", "Queries abandoned by a disconnected client (not server errors).", m.ClientGone.Load()),
		AdaptiveQueries:    obs.Counter(pw, "usimrank_adaptive_queries_total", "Adaptive (eps-bearing) queries led.", m.AdaptiveQueries.Load()),
		PartialResults:     obs.Counter(pw, "usimrank_partial_results_total", "Adaptive queries answered best-effort under deadline pressure.", m.PartialResults.Load()),
		AdaptiveRounds:     obs.Counter(pw, "usimrank_adaptive_rounds_total", "Sampling rounds committed by adaptive queries.", m.AdaptiveRounds.Load()),
		AdaptiveEarlyStops: obs.Counter(pw, "usimrank_adaptive_early_stops_total", "Adaptive queries whose stopping rule fired (radius <= eps while sampling).", m.AdaptiveEarlyStops.Load()),
		MaxInFlight:        maxInFlight,
	}
	coalescing := CoalescingStats{
		Hits:     obs.Counter(pw, "usimrank_coalesce_hits_total", "Requests that joined an in-flight identical computation.", m.coalesceHits.Load()),
		Misses:   obs.Counter(pw, "usimrank_coalesce_misses_total", "Requests that led their computation.", m.coalesceMisses.Load()),
		PerShape: make(map[string]uint64),
	}
	m.shapeMu.Lock()
	for k, v := range m.shapeHits {
		coalescing.PerShape[k] = v
	}
	m.shapeMu.Unlock()
	if n := coalescing.Hits + coalescing.Misses; n > 0 {
		coalescing.HitRate = float64(coalescing.Hits) / float64(n)
	}
	return serving, coalescing, queries
}
