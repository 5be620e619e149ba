package obs

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair.
type Label struct {
	Key   string
	Value string
}

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4) by hand — this repo takes no external modules, and the format
// is small: `# HELP`/`# TYPE` comments followed by
// `name{label="value"} number` sample lines. Errors are sticky: the
// first write failure is kept and later calls become no-ops, so call
// sites stay linear and check Err once.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// Number is a sample value. Integers render exactly (floats lose
// precision past 2^53, which cumulative walk counters can exceed);
// float64 renders in shortest form, infinities as +Inf/-Inf per the
// exposition format.
type Number interface{ int | int64 | uint64 | float64 }

// Family is a metric family declared on the snapshot line that reads
// its values. Its samples go to the writer it was declared on; a
// Family declared on a nil writer writes nothing, so one snapshot
// function serves both the JSON view (nil writer) and the exposition.
type Family struct {
	p    *PromWriter
	name string
}

// Family declares a metric family, writing its HELP and TYPE lines
// when p is non-nil. typ is one of "counter", "gauge", "histogram".
func (p *PromWriter) Family(name, typ, help string) Family {
	if p != nil && p.err == nil {
		b := p.buf[:0]
		b = append(b, "# HELP "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = appendEscapedHelp(b, help)
		b = append(b, "\n# TYPE "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, typ...)
		b = append(b, '\n')
		p.flush(b)
	}
	return Family{p, name}
}

// Sample writes one sample of f and returns v, so the line that reads
// a value can both expose it and fill the JSON field that reports it.
func Sample[T Number](f Family, labels []Label, v T) T {
	if f.p == nil || f.p.err != nil {
		return v
	}
	b := f.p.buf[:0]
	b = append(b, f.name...)
	if len(labels) > 0 {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l.Key...)
			b = append(b, '=', '"')
			b = appendEscapedLabel(b, l.Value)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	switch x := any(v).(type) {
	case int:
		b = strconv.AppendInt(b, int64(x), 10)
	case int64:
		b = strconv.AppendInt(b, x, 10)
	case uint64:
		b = strconv.AppendUint(b, x, 10)
	case float64:
		switch {
		case math.IsInf(x, 1):
			b = append(b, "+Inf"...)
		case math.IsInf(x, -1):
			b = append(b, "-Inf"...)
		case math.IsNaN(x):
			b = append(b, "NaN"...)
		default:
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
	}
	b = append(b, '\n')
	f.p.flush(b)
	return v
}

// Counter declares a one-sample counter family, writes it when p is
// non-nil, and returns v.
func Counter[T Number](p *PromWriter, name, help string, v T) T {
	return Sample(p.Family(name, "counter", help), nil, v)
}

// Gauge declares a one-sample gauge family, writes it when p is
// non-nil, and returns v.
func Gauge[T Number](p *PromWriter, name, help string, v T) T {
	return Sample(p.Family(name, "gauge", help), nil, v)
}

// Histogram writes one sample of histogram family f: the cumulative
// count cum[i] at each upper bound le[i] as a _bucket series, then
// _sum and _count.
func (f Family) Histogram(labels []Label, le []string, cum []uint64, sum float64, count uint64) {
	if f.p == nil {
		return
	}
	bucket := Family{f.p, f.name + "_bucket"}
	lbls := make([]Label, len(labels)+1)
	copy(lbls, labels)
	for i, c := range cum {
		lbls[len(labels)] = Label{Key: "le", Value: le[i]}
		Sample(bucket, lbls, c)
	}
	Sample(Family{f.p, f.name + "_sum"}, labels, sum)
	Sample(Family{f.p, f.name + "_count"}, labels, count)
}

func (p *PromWriter) flush(b []byte) {
	p.buf = b[:0]
	if _, err := p.w.Write(b); err != nil {
		p.err = err
	}
}

// appendEscapedLabel escapes a label value: backslash, double quote,
// and newline must be backslash-escaped inside the quotes.
func appendEscapedLabel(b []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\"\n") {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendEscapedHelp escapes a HELP text: backslash and newline only
// (quotes are legal there).
func appendEscapedHelp(b []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\n") {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// WriteRuntimeMetrics emits the Go runtime gauges every serving process
// exports: goroutines, heap, and GC totals.
func WriteRuntimeMetrics(p *PromWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	Gauge(p, "go_goroutines", "Live goroutines.", runtime.NumGoroutine())
	Gauge(p, "go_heap_alloc_bytes", "Bytes of allocated heap objects.", ms.HeapAlloc)
	Gauge(p, "go_heap_sys_bytes", "Bytes of heap obtained from the OS.", ms.HeapSys)
	Counter(p, "go_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))
	Counter(p, "go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)
}
