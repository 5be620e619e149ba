// Package obs is the zero-dependency observability plane: request
// tracing, per-query execution profiles, and Prometheus text
// exposition, shared by the single-node server and the cluster
// coordinator.
//
// # Span model
//
// A Trace records one request's span tree against a single monotonic
// clock (time.Since of the trace's start), so span timestamps within a
// process are totally ordered and immune to wall-clock steps. Spans
// are identified by small sequential ids; each span carries a parent
// id, a name, start/duration, summed integer attributes (the channel
// for kernel resource counts: walks sampled, rows probed, residual
// walks, cache lookups), an optional error, and optionally a nested
// remote Profile returned by a downstream tier.
//
// Trace identity crosses process boundaries in the Usimrank-Trace
// header ("<trace-id>-<parent-span-hex>"): the coordinator forwards it
// on every scatter, hedged replica attempt, and admin fan-out request,
// and a shard node parses it so its spans nest under the coordinator's
// per-shard span. Response BODIES never change with tracing — a
// Profile appears inline only when the request itself set debug=true —
// which is how the cluster's byte-identity contract survives
// always-available tracing.
//
// # Zero overhead when disabled
//
// The disabled state is a nil *Trace and the zero Span. Every method
// on both is a no-op that performs no allocation, no lock, and no
// time.Now call; ContextWithSpan returns the context unchanged and
// SpanFromContext's miss path does not allocate (the key is a
// zero-size type). Instrumented code therefore calls Start/Add/End
// unconditionally, and a request with tracing unarmed (no trace
// header, no debug flag, no slow-query threshold) pays a few nil
// checks — pinned by an AllocsPerRun==0 test and by the bench-gate's
// tracing-overhead leg, so the v2 kernel's 0 allocs/op gate holds with
// the instrumentation compiled in.
//
// # Exposition
//
// PromWriter hand-rolls the Prometheus text format (0.0.4): HELP/TYPE
// headers, escaped label values, exact integer rendering for counters
// that exceed 2^53. Counter and Gauge declare a one-sample family on
// the line that reads its value, and Family plus Sample (or
// Family.Histogram) a labeled one: they write the family when given a
// writer and return the value either way, so one snapshot function
// fills /v1/stats (nil writer) and writes /metrics. The exposition
// order is the order of the reads; Go evaluates a composite literal's
// fields left to right, so a struct literal of declarations writes in
// the order it lists them. WriteRuntimeMetrics adds the standard Go
// runtime gauges. The server and coordinator each mount it at GET
// /metrics.
package obs
