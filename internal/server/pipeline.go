package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"usimrank/internal/obs"
)

// Plane is one process's query-serving state — the tiered admission
// gate, the flight group, the metrics registry and the context flights
// run under — together with the per-query pipeline every query of the
// process runs through: a node's POST handlers, its subscription
// pushes, and a cluster coordinator's handlers alike. What differs
// between them is passed in as a Backend, never decided by asking
// which plane is calling.
type Plane struct {
	// name is what the process calls itself in 429 messages ("server"
	// or "coordinator").
	name    string
	cfg     Config
	baseCtx context.Context
	adm     *Admission
	flights *FlightGroup
	metrics *MetricsRegistry
}

// NewPlane builds the serving state for one process. cfg must already
// carry its defaults; NewPlane reads only the admission (MaxInFlight,
// AdmissionReserve, AdmissionWait), deadline (QueryTimeout) and
// slow-query (SlowQuery, LogJSON, Logger) fields. Flights run under
// ctx, so cancelling it cancels in-flight work. metrics is the
// registry the process's stats and /metrics views read.
func NewPlane(ctx context.Context, name string, cfg Config, metrics *MetricsRegistry) *Plane {
	return &Plane{
		name:    name,
		cfg:     cfg,
		baseCtx: ctx,
		adm:     NewTieredAdmission(cfg.MaxInFlight, cfg.AdmissionReserve, cfg.AdmissionWait),
		flights: NewFlightGroup(),
		metrics: metrics,
	}
}

// Admission returns the plane's admission gate.
func (p *Plane) Admission() *Admission { return p.adm }

// Backend is how a plane answers one query once the pipeline has
// admitted it and made it a flight's leader.
type Backend struct {
	// Span names the leader's compute span: "engine_compute" on a node,
	// "scatter" on a coordinator.
	Span string
	// Fail writes a failed query's error response.
	Fail func(http.ResponseWriter, error)
	// Compute produces the answer under the flight's context, which
	// carries the Span as its ambient span.
	Compute func(ctx context.Context) (any, error)
	// pin, when set, is the engine handle the query was validated
	// against: the leader re-pins it for the flight's own lifetime, so a
	// hot-swap drain cannot complete while the flight still computes on
	// that engine, even after every waiting request has gone.
	pin *engineHandle
}

// errRejected is what Run returns when admission turned the query away.
var errRejected = errors.New("admission rejected")

// Run takes one validated query through the serving pipeline:
//
//   - tracing, armed when any consumer exists (see trace);
//   - the effective deadline: the plane's QueryTimeout, lowered by the
//     request's timeout_ms;
//   - tiered admission: eps-bearing queries may fall back to the
//     reserve, and a rejection answers 429 with a Retry-After hint;
//   - coalescing under the query's flight key at graph generation gen.
//     A request that joins an existing flight gives its admission slot
//     back at once (FlightGroup.Do's onFollow): a follower does no work,
//     and a burst of identical queries must not hold the whole admission
//     budget while idling on one leader. A leader's compute span rides
//     the flight context, so a debug profile shows where its time went;
//     followers show a coalesce span with leader=0;
//   - accounting: per-shape metrics and the slow-query log. A
//     cancellation caused by the client's own disconnect is not a
//     serving error: it counts as client_gone and writes nothing, since
//     nobody is reading.
//
// On success Run returns the flight's value, whether it was shared, and
// for a debug query the finished profile; the caller writes the
// response. On failure the error response has already been written.
//
// A subscription push passes nil w and r: it waits under the plane's
// own context, is neither traced nor recorded, and gets its error back
// unwritten.
func (p *Plane) Run(w http.ResponseWriter, r *http.Request, q *Query, gen uint64, b Backend) (any, bool, *obs.Profile, error) {
	parent := p.baseCtx
	var tr *obs.Trace
	var root obs.Span
	if r != nil {
		parent = r.Context()
		if tr, root = p.trace(r, q); tr != nil {
			// Echo the trace id so callers can join logs without a debug
			// body; the header never varies the body bytes.
			w.Header().Set(obs.TraceHeader, tr.ID())
		}
	}
	timeout := p.cfg.QueryTimeout
	if d := time.Duration(q.timeoutMs) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	waitCtx, cancelWait := context.WithTimeout(parent, timeout)
	defer cancelWait()

	asp := root.Start("admission_wait")
	release := p.adm.AcquireTier(waitCtx, q.eps > 0)
	if release == nil {
		asp.Error(errRejected)
		asp.End()
		p.metrics.AdmissionRejected.Add(1)
		if w != nil {
			w.Header().Set("Retry-After", RetryAfterSeconds(p.adm.Wait()))
			WriteError(w, http.StatusTooManyRequests, CodeOverloaded,
				fmt.Sprintf("%s saturated: %d queries in flight", p.name, p.cfg.MaxInFlight))
		}
		return nil, false, nil, errRejected
	}
	asp.End()
	p.metrics.InFlight.Add(1)
	// The slot is given back exactly once, by whichever comes first:
	// becoming a follower or this frame unwinding.
	var relOnce sync.Once
	releaseSlot := func() {
		relOnce.Do(func() {
			p.metrics.InFlight.Add(-1)
			release()
		})
	}
	defer releaseSlot()

	start := time.Now()
	csp := root.Start("coalesce")
	val, coalesced, err := p.flights.Do(waitCtx, q.flightKey(gen, timeout), releaseSlot, func() func() (any, error) {
		// Leader path, still in this request's frame: move a pin and a
		// plane-owned deadline into the flight so it survives this
		// request abandoning the wait.
		pin, compute := b.pin, b.Compute
		if pin != nil {
			pin.tryAcquire()
		}
		fctx, cancelFlight := context.WithTimeout(p.baseCtx, timeout)
		sp := root.Start(b.Span)
		fctx = obs.ContextWithSpan(fctx, sp)
		return func() (any, error) {
			defer sp.End()
			if pin != nil {
				defer pin.release()
			}
			defer cancelFlight()
			return compute(fctx)
		}
	})
	if csp.Enabled() {
		var lead int64
		if !coalesced {
			lead = 1
		}
		csp.Add("leader", lead)
	}
	csp.End()
	if w == nil {
		return val, coalesced, nil, err
	}
	elapsed := time.Since(start)
	// Cancellation with a live request context is the process shutting
	// down; that one still reports 503 through Fail.
	gone := err != nil && errors.Is(err, context.Canceled) && r.Context().Err() != nil
	recorded := err
	if gone {
		p.metrics.ClientGone.Add(1)
		recorded = nil
	}
	p.metrics.RecordQuery(q.Shape, q.Alg, elapsed, coalesced, recorded)
	root.Error(err)
	p.logSlowQuery(q, tr, elapsed, coalesced, err)
	if err != nil {
		if !gone {
			b.Fail(w, err)
		}
		return nil, coalesced, nil, err
	}
	var prof *obs.Profile
	if q.debug {
		root.End()
		prof = tr.Profile()
	}
	return val, coalesced, prof, nil
}

// trace arms tracing for a request when any consumer exists: an
// incoming Usimrank-Trace header (an upstream wants connected spans),
// the debug flag (the client wants the profile inline), or a
// configured slow-query threshold (the log may want the trace).
// Otherwise it returns (nil, zero Span) and the request records
// nothing — the allocation-free disabled path.
func (p *Plane) trace(r *http.Request, q *Query) (*obs.Trace, obs.Span) {
	hdr := r.Header.Get(obs.TraceHeader)
	if hdr == "" && !q.debug && p.cfg.SlowQuery <= 0 {
		return nil, obs.Span{}
	}
	id, parent, _ := obs.ParseTraceHeader(hdr)
	tr := obs.NewTrace(id, parent)
	return tr, tr.Start(q.Shape)
}

// RetryAfterSeconds derives the 429 Retry-After hint from the
// admission grace: the request already waited one full grace period
// without a slot freeing, so a client should back off at least that
// long (floored at the header's 1-second resolution) before retrying.
func RetryAfterSeconds(wait time.Duration) string {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// slowQueryLog is the JSON shape of one -log-json slow-query line.
type slowQueryLog struct {
	Msg        string            `json:"msg"`
	TraceID    string            `json:"trace_id"`
	Shape      string            `json:"shape"`
	Alg        string            `json:"alg"`
	DurationMs float64           `json:"duration_ms"`
	Coalesced  bool              `json:"coalesced"`
	Error      string            `json:"error,omitempty"`
	Spans      []obs.ProfileSpan `json:"spans"`
}

// logSlowQuery writes one structured slow-query line — key=value text,
// or single-line JSON under LogJSON — when d meets the SlowQuery
// threshold. The trace is always armed when SlowQuery is set (see
// trace), so the line can carry span timings.
func (p *Plane) logSlowQuery(q *Query, tr *obs.Trace, d time.Duration, coalesced bool, err error) {
	if p.cfg.SlowQuery <= 0 || d < p.cfg.SlowQuery || tr == nil {
		return
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	prof := tr.Profile()
	durMs := float64(d.Microseconds()) / 1000
	if p.cfg.LogJSON {
		line, merr := json.Marshal(slowQueryLog{
			Msg: "slow_query", TraceID: prof.TraceID, Shape: q.Shape, Alg: q.Alg,
			DurationMs: durMs, Coalesced: coalesced, Error: errMsg, Spans: prof.Spans,
		})
		if merr == nil {
			p.cfg.Logger.Printf("%s", line)
		}
		return
	}
	p.cfg.Logger.Printf("slow_query trace=%s shape=%s alg=%s dur_ms=%.3f coalesced=%v err=%q spans: %s",
		prof.TraceID, q.Shape, q.Alg, durMs, coalesced, errMsg, prof.SpanLine())
}
