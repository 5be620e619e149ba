package obs

import (
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
)

// expositionLine matches one valid sample line of the text exposition
// format; the e2e jobs apply the same shape check to live /metrics
// output.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

func TestPromWriterFormat(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Family("usimrank_queries_total", "counter", "Completed queries.")
	Sample(Family{pw, "usimrank_queries_total"}, []Label{{"shape", "score"}, {"alg", "srsp"}}, uint64(18446744073709551615))
	pw.Family("usimrank_query_latency_seconds", "histogram", "Latency.")
	Sample(Family{pw, "usimrank_query_latency_seconds_bucket"}, []Label{{"le", "0.00005"}}, 3.0)
	Sample(Family{pw, "usimrank_query_latency_seconds_bucket"}, []Label{{"le", "+Inf"}}, 7.0)
	Sample(Family{pw, "usimrank_query_latency_seconds_sum"}, nil, 0.125)
	Sample(Family{pw, "usimrank_in_flight"}, nil, int64(-1))
	Sample(Family{pw, "usimrank_inf"}, nil, math.Inf(1))
	if pw.Err() != nil {
		t.Fatalf("writer error: %v", pw.Err())
	}
	out := sb.String()
	if !strings.Contains(out, `usimrank_queries_total{shape="score",alg="srsp"} 18446744073709551615`) {
		t.Fatalf("uint line missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "# HELP usimrank_queries_total Completed queries.\n# TYPE usimrank_queries_total counter\n") {
		t.Fatalf("header block missing:\n%s", out)
	}
	if !strings.Contains(out, "usimrank_inf +Inf") {
		t.Fatalf("+Inf rendering missing:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
	}
}

func TestPromWriterLabelEscaping(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	Sample(Family{pw, "m"}, []Label{{"v", "a\"b\\c\nd"}}, uint64(1))
	pw.Family("h", "gauge", "line\\one\ntwo")
	want := `m{v="a\"b\\c\nd"} 1` + "\n"
	if !strings.HasPrefix(sb.String(), want) {
		t.Fatalf("escaping:\n got %q\nwant prefix %q", sb.String(), want)
	}
	if !strings.Contains(sb.String(), `# HELP h line\\one\ntwo`) {
		t.Fatalf("help escaping: %q", sb.String())
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errFail
}

var errFail = errors.New("sink failed")

func TestPromWriterStickyError(t *testing.T) {
	fw := &failWriter{}
	pw := NewPromWriter(fw)
	Sample(Family{pw, "a"}, nil, uint64(1))
	Sample(Family{pw, "b"}, nil, uint64(2))
	pw.Family("c", "gauge", "h")
	if pw.Err() != errFail {
		t.Fatalf("err: %v", pw.Err())
	}
	if fw.n != 1 {
		t.Fatalf("writes after first failure: %d", fw.n)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	WriteRuntimeMetrics(pw)
	if pw.Err() != nil {
		t.Fatalf("runtime metrics: %v", pw.Err())
	}
	for _, want := range []string{"go_goroutines ", "go_heap_alloc_bytes ", "go_gc_pause_seconds_total "} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDeclarationHelpers: on a nil writer a declaration writes nothing
// and hands its value back; on a live writer it writes HELP and TYPE,
// then each sample in its type's exact rendering.
func TestDeclarationHelpers(t *testing.T) {
	var off *PromWriter
	if got := Counter(off, "c_total", "C.", uint64(7)); got != 7 {
		t.Fatalf("Counter on a nil writer returned %d", got)
	}
	if got := Gauge(off, "g", "G.", -2.5); got != -2.5 {
		t.Fatalf("Gauge on a nil writer returned %v", got)
	}
	hist := off.Family("h", "histogram", "H.")
	hist.Histogram(nil, []string{"+Inf"}, []uint64{1}, 0.5, 1)
	if got := Sample(hist, nil, 3); got != 3 {
		t.Fatalf("Sample on a nil writer returned %d", got)
	}

	var sb strings.Builder
	pw := NewPromWriter(&sb)
	if got := Counter(pw, "c_total", "C.", uint64(18446744073709551615)); got != 18446744073709551615 {
		t.Fatalf("Counter returned %d", got)
	}
	Gauge(pw, "g_int", "G.", -3)
	Gauge(pw, "g_int64", "G.", int64(-4))
	Gauge(pw, "g_float", "G.", 0.25)
	req := pw.Family("req_total", "counter", "Requests.")
	Sample(req, []Label{{"shard", "shard0"}}, uint64(5))
	Sample(req, []Label{{"shard", "shard1"}}, uint64(6))
	lat := pw.Family("lat_seconds", "histogram", "Latency.")
	lat.Histogram([]Label{{"shape", "score"}}, []string{"0.1", "+Inf"}, []uint64{1, 3}, 0.75, 3)
	if pw.Err() != nil {
		t.Fatal(pw.Err())
	}
	want := `# HELP c_total C.
# TYPE c_total counter
c_total 18446744073709551615
# HELP g_int G.
# TYPE g_int gauge
g_int -3
# HELP g_int64 G.
# TYPE g_int64 gauge
g_int64 -4
# HELP g_float G.
# TYPE g_float gauge
g_float 0.25
# HELP req_total Requests.
# TYPE req_total counter
req_total{shard="shard0"} 5
req_total{shard="shard1"} 6
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{shape="score",le="0.1"} 1
lat_seconds_bucket{shape="score",le="+Inf"} 3
lat_seconds_sum{shape="score"} 0.75
lat_seconds_count{shape="score"} 3
`
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}
