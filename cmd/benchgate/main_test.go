package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	got := parse(`goos: linux
BenchmarkApplyUpdates
BenchmarkApplyUpdates-2                   	       3	   2351518 ns/op	         0.0001000 invalidated_frac	 2153722 B/op	      86 allocs/op
BenchmarkSRSPParallel/workers=4-2         	       3	 112741346 ns/op
BenchmarkSRSPParallel/workers=4-2         	       3	 103161387 ns/op
BenchmarkSamplingV2/score/v2              	       3	    968724 ns/op	       0 B/op	       0 allocs/op
    bench_test.go:12: a benchmark's log line
PASS
ok  	usimrank	12.345s
`)
	want := results{
		"BenchmarkApplyUpdates": {
			"ns/op": {2351518}, "invalidated_frac": {0.0001}, "B/op": {2153722}, "allocs/op": {86},
		},
		"BenchmarkSRSPParallel/workers=4": {"ns/op": {112741346, 103161387}},
		"BenchmarkSamplingV2/score/v2":    {"ns/op": {968724}, "B/op": {0}, "allocs/op": {0}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse:\n got %v\nwant %v", got, want)
	}
}

// TestTestOutput parses a test2json stream whose result line is split
// across two output events, as BENCH_BASELINE.json's are.
func TestTestOutput(t *testing.T) {
	stream := `{"Action":"start","Package":"usimrank"}
{"Action":"output","Package":"usimrank","Output":"goos: linux\n"}
{"Action":"run","Package":"usimrank","Test":"BenchmarkApplyUpdates"}
{"Action":"output","Package":"usimrank","Test":"BenchmarkApplyUpdates","Output":"BenchmarkApplyUpdates\n"}
{"Action":"output","Package":"usimrank","Test":"BenchmarkApplyUpdates","Output":"BenchmarkApplyUpdates-2   \t"}
{"Action":"output","Package":"usimrank","Test":"BenchmarkApplyUpdates","Output":"       3\t   2351518 ns/op\t 0.0001000 invalidated_frac\n"}
{"Action":"pass","Package":"usimrank"}
`
	text, err := testOutput(stream)
	if err != nil {
		t.Fatal(err)
	}
	want := results{"BenchmarkApplyUpdates": {"ns/op": {2351518}, "invalidated_frac": {0.0001}}}
	if got := parse(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("parse(testOutput):\n got %v\nwant %v", got, want)
	}
	if _, err := testOutput(stream + "{not json\n"); err == nil {
		t.Fatal("a corrupt stream was accepted")
	}
}

// Fixtures on each bound and just past it. Sample values are chosen so
// that reading the wrong statistic would flip the verdict: the geomean
// and speedup legs average their samples (the fastest sample would
// fail), and the tracing legs compare fastest samples (the mean would
// fail).
const (
	baseRun = `BenchmarkA-2 3 50 ns/op
BenchmarkA-2 3 150 ns/op
BenchmarkOnlyBase-2 3 1 ns/op
`
	indexedRun = `BenchmarkIndexedSingleSource/indexed-2 3 50 ns/op
BenchmarkIndexedSingleSource/indexed-2 3 150 ns/op
`
	v2Run = `BenchmarkSamplingV2/score/v2-2 3 100 ns/op 0 B/op 0 allocs/op
BenchmarkSamplingV2/source/v1-2 3 400 ns/op 64 B/op 9 allocs/op
BenchmarkSamplingV2/source/v2-2 3 100 ns/op 0 B/op 0 allocs/op
BenchmarkSamplingV2/source/v2-2 3 300 ns/op 0 B/op 0 allocs/op
BenchmarkSamplingV2/only/v1-2 3 100 ns/op 64 B/op 9 allocs/op
`
	tracingBare = `BenchmarkTracingOverhead/bare-2 500 100 ns/op 0 B/op 0 allocs/op
BenchmarkTracingOverhead/bare-2 500 130 ns/op 0 B/op 0 allocs/op
`
)

func TestGatesTripJustPastTheirBounds(t *testing.T) {
	cases := []struct {
		name  string
		check func(w io.Writer) error
		want  string // a substring of the error; "" when the gate passes
	}{
		// head/base ns/op geomean ≤ 1.10. BenchmarkOnlyBase and
		// BenchmarkOnlyHead ran on one side only and stay out.
		{"geomean on the bound", func(w io.Writer) error {
			return gateGeomean(w, parse(baseRun), parse("BenchmarkA-2 3 110 ns/op\nBenchmarkOnlyHead-2 3 9 ns/op\n"))
		}, ""},
		{"geomean past the bound", func(w io.Writer) error {
			return gateGeomean(w, parse(baseRun), parse("BenchmarkA-2 3 101 ns/op\nBenchmarkA-2 3 121 ns/op\n"))
		}, "geomean ratio 1.1100x exceeds 1.10"},
		{"geomean without overlap", func(w io.Writer) error {
			return gateGeomean(w, parse(baseRun), parse("BenchmarkOnlyHead-2 3 9 ns/op\n"))
		}, "no benchmarks matched the base ref"},

		// sampling/indexed ≥ 5.
		{"indexed on the bound", func(w io.Writer) error {
			return gateIndexed(w, parse(indexedRun+"BenchmarkIndexedSingleSource/sampling-2 3 500 ns/op\n"))
		}, ""},
		{"indexed past the bound", func(w io.Writer) error {
			return gateIndexed(w, parse(indexedRun+"BenchmarkIndexedSingleSource/sampling-2 3 499 ns/op\n"))
		}, "indexed speedup 4.99x below 5x"},
		{"indexed leg missing", func(w io.Writer) error {
			return gateIndexed(w, parse("BenchmarkIndexedSingleSource/sampling-2 3 500 ns/op\n"))
		}, "BenchmarkIndexedSingleSource/indexed missing"},
		{"sampling leg missing", func(w io.Writer) error {
			return gateIndexed(w, parse(indexedRun))
		}, "BenchmarkIndexedSingleSource/sampling missing"},

		// v1/v2 geomean over shapes ≥ 2; the v1-only shape stays out.
		{"v2 speedup on the bound", func(w io.Writer) error {
			return gateV2(w, parse(v2Run+"BenchmarkSamplingV2/score/v1-2 3 200 ns/op 64 B/op 9 allocs/op\n"))
		}, ""},
		{"v2 speedup past the bound", func(w io.Writer) error {
			return gateV2(w, parse(v2Run+"BenchmarkSamplingV2/score/v1-2 3 199 ns/op 64 B/op 9 allocs/op\n"))
		}, "below 2x"},
		{"v2 leg pairs missing", func(w io.Writer) error {
			return gateV2(w, parse("BenchmarkSamplingV2/score/v1-2 3 200 ns/op\nBenchmarkSamplingV2/source/v2-2 3 100 ns/op\n"))
		}, "BenchmarkSamplingV2 v1/v2 leg pairs missing"},

		// 0 allocs/op on every v2 sample, read per sample.
		{"v2 allocations on the bound", func(w io.Writer) error {
			return gateV2Allocs(w, parse(v2Run))
		}, ""},
		{"v2 allocations past the bound", func(w io.Writer) error {
			return gateV2Allocs(w, parse(v2Run+"BenchmarkSamplingV2/source/v2-2 3 100 ns/op 16 B/op 1 allocs/op\n"))
		}, "1 v2 sample(s) allocate"},
		{"v2 legs missing", func(w io.Writer) error {
			return gateV2Allocs(w, parse("BenchmarkSamplingV2/score/v1-2 3 200 ns/op 64 B/op 9 allocs/op\n"))
		}, "no BenchmarkSamplingV2 v2 legs"},
		{"v2 allocation column missing", func(w io.Writer) error {
			return gateV2Allocs(w, parse(v2Run+"BenchmarkSamplingV2/score/v2-2 3 100 ns/op\n"))
		}, "BenchmarkSamplingV2/score/v2: 1 of 2 samples report allocs/op"},

		// off/bare fastest samples ≤ 1.02, with 0 allocs/op on every
		// off sample.
		{"tracing on the bound", func(w io.Writer) error {
			return gateTracing(w, parse(tracingBare+"BenchmarkTracingOverhead/off-2 500 102 ns/op 0 B/op 0 allocs/op\nBenchmarkTracingOverhead/off-2 500 140 ns/op 0 B/op 0 allocs/op\n"))
		}, ""},
		{"tracing past the bound", func(w io.Writer) error {
			return gateTracing(w, parse(tracingBare+"BenchmarkTracingOverhead/off-2 500 102.1 ns/op 0 B/op 0 allocs/op\n"))
		}, "disarmed tracing ratio 1.0210x exceeds 1.02"},
		{"tracing off allocates", func(w io.Writer) error {
			return gateTracing(w, parse(tracingBare+"BenchmarkTracingOverhead/off-2 500 100 ns/op 0 B/op 0 allocs/op\nBenchmarkTracingOverhead/off-2 500 100 ns/op 8 B/op 1 allocs/op\n"))
		}, "1 off sample(s) allocate with tracing disarmed"},
		{"tracing bare leg missing", func(w io.Writer) error {
			return gateTracing(w, parse("BenchmarkTracingOverhead/off-2 500 100 ns/op 0 B/op 0 allocs/op\n"))
		}, "BenchmarkTracingOverhead/bare missing"},
		{"tracing off leg missing", func(w io.Writer) error {
			return gateTracing(w, parse(tracingBare))
		}, "BenchmarkTracingOverhead/off missing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := c.check(&out)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("gate failed: %v\n%s", err, out.String())
			case c.want != "" && err == nil:
				t.Fatalf("gate passed, want an error with %q\n%s", c.want, out.String())
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestRun drives the command's whole path over files: every gate
// passes on the bound, and a failing gate fails the run without
// stopping the others.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.txt", baseRun)
	head := write("current.txt", "BenchmarkA-2 3 110 ns/op\n"+indexedRun+
		"BenchmarkIndexedSingleSource/sampling-2 3 500 ns/op\n"+
		v2Run+"BenchmarkSamplingV2/score/v1-2 3 200 ns/op 64 B/op 9 allocs/op\n")
	tracing := write("tracing.txt", tracingBare+"BenchmarkTracingOverhead/off-2 500 102 ns/op 0 B/op 0 allocs/op\n")
	baseline := write("baseline.json", `{"Action":"output","Output":"BenchmarkA-2 \t3\t 50 ns/op\n"}`+"\n")

	var out strings.Builder
	if err := run(&out, base, head, tracing, baseline); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"runner drift geomean: 2.0000x across 1 benchmarks",
		"geomean ratio: 1.1000x across 1 benchmarks",
		"5.0x speedup",
		"v2-over-v1 speedup geomean: 2.00x across 2 shapes",
		"all v2 legs allocation-free",
		"(1.0200x, gate: <= 1.02)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	head = write("current.txt", "BenchmarkA-2 3 111 ns/op\n")
	out.Reset()
	err := run(&out, base, head, tracing, baseline)
	if err == nil {
		t.Fatal("run passed with four gates failing")
	}
	if got := strings.Count(err.Error(), "\n") + 1; got != 4 {
		t.Errorf("run reported %d failures, want 4 (geomean, indexed, v2 speedup, v2 allocations): %v", got, err)
	}
	if !strings.Contains(out.String(), "disarmed tracing: bare") {
		t.Errorf("the tracing gate did not run after the failures:\n%s", out.String())
	}

	if err := run(&out, filepath.Join(dir, "absent.txt"), head, tracing, baseline); err == nil {
		t.Fatal("a missing input file was accepted")
	}
}
