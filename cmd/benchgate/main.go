// Command benchgate enforces the perf-regression gate's bounds on the
// `go test -bench` output that `make bench-gate` captures:
//
//   - the head's ns/op over the base ref's, in geomean over the
//     benchmarks both sides ran, is at most 1.10;
//   - BenchmarkIndexedSingleSource's sampling leg is at least 5× slower
//     than its indexed leg;
//   - BenchmarkSamplingV2's v1 legs are at least 2× slower than its v2
//     legs, in geomean over the shapes;
//   - every BenchmarkSamplingV2 v2 sample reports 0 allocs/op;
//   - BenchmarkTracingOverhead's disarmed (off) leg is within 2% of the
//     bare kernel call, fastest sample against fastest sample, and every
//     off sample reports 0 allocs/op.
//
// Samples of one benchmark are averaged, except where a bound names the
// fastest sample or every sample. The legs of the last four bounds share
// one process, graph and engine, so their ratios do not depend on the
// machine; only the first bound compares two binaries, which is why
// `make bench-gate` runs both on one machine, interleaved. The command
// also prints, for information only, the drift between the committed
// BENCH_BASELINE.json and the base ref's re-run: the same code measured
// on two machines, so the ratio is the runner's skew.
//
// Usage:
//
//	benchgate -base base.txt -head current.txt -tracing tracing.txt -baseline BENCH_BASELINE.json
//
// It exits 1 when any bound fails, after checking all of them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The gate's bounds.
const (
	maxGeomeanRatio   = 1.10 // head/base ns/op, geomean over benchmarks
	minIndexedSpeedup = 5    // sampling/indexed ns/op
	minV2Speedup      = 2    // v1/v2 ns/op, geomean over shapes
	maxAllocsPerOp    = 0    // every v2 sample and every tracing-off sample
	maxTracingRatio   = 1.02 // off/bare ns/op, fastest samples
)

// results maps a benchmark's name, less its -N GOMAXPROCS suffix, to
// the samples of each unit it reported, in input order.
type results map[string]map[string][]float64

var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads `go test -bench` text. A result line is a name starting
// with "Benchmark", an iteration count, then value-unit pairs
// ("123 ns/op", "0 allocs/op", "0.0001 invalidated_frac"); every other
// line is skipped.
func parse(text string) results {
	res := results{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := procsSuffix.ReplaceAllString(f[0], "")
		if res[name] == nil {
			res[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				res[name][f[i+1]] = append(res[name][f[i+1]], v)
			}
		}
	}
	return res
}

// testOutput joins the output events of a test2json stream such as
// BENCH_BASELINE.json; test2json splits a result line across two.
func testOutput(stream string) (string, error) {
	var text strings.Builder
	dec := json.NewDecoder(strings.NewReader(stream))
	for dec.More() {
		var ev struct{ Action, Output string }
		if err := dec.Decode(&ev); err != nil {
			return "", err
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	return text.String(), nil
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// compare prints every benchmark both sides ran with its mean ns/op on
// each side and their ratio, after over before, using format, and
// returns the ratios' geometric mean and count. A benchmark one side
// lacks is left out.
func compare(w io.Writer, format string, before, after results) (geo float64, n int) {
	logsum := 0.0
	for _, name := range slices.Sorted(maps.Keys(before)) {
		b, a := before[name]["ns/op"], after[name]["ns/op"]
		if len(b) == 0 || len(a) == 0 {
			continue
		}
		ratio := mean(a) / mean(b)
		logsum += math.Log(ratio)
		n++
		fmt.Fprintf(w, format, name, mean(b), mean(a), ratio)
	}
	return math.Exp(logsum / float64(n)), n
}

// drift prints the informational report: the committed baseline against
// the base ref's re-run on this machine.
func drift(w io.Writer, baseline, base results) {
	geo, n := compare(w, "%-64s committed %14.0f -> re-run %14.0f ns/op  (%.3fx)\n", baseline, base)
	if n == 0 {
		fmt.Fprintln(w, "no overlap between the committed baseline and the base-ref re-run")
		return
	}
	fmt.Fprintf(w, "runner drift geomean: %.4fx across %d benchmarks (informational)\n", geo, n)
}

// gateGeomean bounds the head's slowdown against the base ref.
func gateGeomean(w io.Writer, base, head results) error {
	geo, n := compare(w, "%-64s %14.0f -> %14.0f ns/op  (%.3fx)\n", base, head)
	if n == 0 {
		return errors.New("no benchmarks matched the base ref")
	}
	fmt.Fprintf(w, "geomean ratio: %.4fx across %d benchmarks (gate: %.2f)\n", geo, n, maxGeomeanRatio)
	if geo > maxGeomeanRatio {
		return fmt.Errorf("geomean ratio %.4fx exceeds %.2f", geo, maxGeomeanRatio)
	}
	return nil
}

// missing names the first of legs that the run lacks.
func missing(res results, run string, legs ...string) error {
	for _, leg := range legs {
		if len(res[leg]["ns/op"]) == 0 {
			return fmt.Errorf("%s missing from the %s run", leg, run)
		}
	}
	return nil
}

// gateIndexed bounds the indexed single-source path's speedup over the
// sampling kernel it shortcuts.
func gateIndexed(w io.Writer, head results) error {
	const indexedLeg, samplingLeg = "BenchmarkIndexedSingleSource/indexed", "BenchmarkIndexedSingleSource/sampling"
	if err := missing(head, "head", indexedLeg, samplingLeg); err != nil {
		return err
	}
	indexed, sampling := mean(head[indexedLeg]["ns/op"]), mean(head[samplingLeg]["ns/op"])
	speedup := sampling / indexed
	fmt.Fprintf(w, "indexed %.0f ns/op vs sampling %.0f ns/op: %.1fx speedup (gate: >= %dx)\n", indexed, sampling, speedup, minIndexedSpeedup)
	if speedup < minIndexedSpeedup {
		return fmt.Errorf("indexed speedup %.2fx below %dx", speedup, minIndexedSpeedup)
	}
	return nil
}

// gateV2 bounds the v2 kernel's speedup over v1 across the shapes that
// ran both legs.
func gateV2(w io.Writer, head results) error {
	n, logsum := 0, 0.0
	for _, name := range slices.Sorted(maps.Keys(head)) {
		shape, ok := strings.CutSuffix(name, "/v1")
		if !ok || !strings.HasPrefix(name, "BenchmarkSamplingV2/") {
			continue
		}
		v1, v2 := head[name]["ns/op"], head[shape+"/v2"]["ns/op"]
		if len(v1) == 0 || len(v2) == 0 {
			continue
		}
		speedup := mean(v1) / mean(v2)
		logsum += math.Log(speedup)
		n++
		fmt.Fprintf(w, "%-48s v1 %12.0f -> v2 %12.0f ns/op  (%.2fx)\n", shape, mean(v1), mean(v2), speedup)
	}
	if n == 0 {
		return errors.New("BenchmarkSamplingV2 v1/v2 leg pairs missing from the head run")
	}
	geo := math.Exp(logsum / float64(n))
	fmt.Fprintf(w, "v2-over-v1 speedup geomean: %.2fx across %d shapes (gate: >= %dx)\n", geo, n, minV2Speedup)
	if geo < minV2Speedup {
		return fmt.Errorf("v2-over-v1 speedup geomean %.3fx below %dx", geo, minV2Speedup)
	}
	return nil
}

// allocating prints each allocs/op sample of the named leg and returns
// how many exceed maxAllocsPerOp. A sample without the column (a run
// without -benchmem) is an error: the bound could not be read.
func allocating(w io.Writer, res results, leg string) (int, error) {
	allocs, samples := res[leg]["allocs/op"], len(res[leg]["ns/op"])
	if len(allocs) != samples {
		return 0, fmt.Errorf("%s: %d of %d samples report allocs/op", leg, len(allocs), samples)
	}
	bad := 0
	for _, a := range allocs {
		fmt.Fprintf(w, "%-64s %g allocs/op\n", leg, a)
		if a > maxAllocsPerOp {
			bad++
		}
	}
	return bad, nil
}

// gateV2Allocs requires every v2 sample to be allocation-free.
func gateV2Allocs(w io.Writer, head results) error {
	seen, bad := 0, 0
	for _, leg := range slices.Sorted(maps.Keys(head)) {
		if !strings.HasPrefix(leg, "BenchmarkSamplingV2/") || !strings.HasSuffix(leg, "/v2") {
			continue
		}
		seen++
		b, err := allocating(w, head, leg)
		if err != nil {
			return err
		}
		bad += b
	}
	if seen == 0 {
		return errors.New("no BenchmarkSamplingV2 v2 legs in the head run")
	}
	if bad > 0 {
		return fmt.Errorf("%d v2 sample(s) allocate in steady state (gate: %d allocs/op)", bad, maxAllocsPerOp)
	}
	fmt.Fprintln(w, "all v2 legs allocation-free")
	return nil
}

// gateTracing bounds what disarmed tracing adds to the kernel call.
func gateTracing(w io.Writer, tracing results) error {
	const bareLeg, offLeg = "BenchmarkTracingOverhead/bare", "BenchmarkTracingOverhead/off"
	if err := missing(tracing, "tracing", bareLeg, offLeg); err != nil {
		return err
	}
	bad, err := allocating(w, tracing, offLeg)
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d off sample(s) allocate with tracing disarmed (gate: %d allocs/op)", bad, maxAllocsPerOp)
	}
	bare, off := slices.Min(tracing[bareLeg]["ns/op"]), slices.Min(tracing[offLeg]["ns/op"])
	ratio := off / bare
	fmt.Fprintf(w, "disarmed tracing: bare %.0f ns/op vs off %.0f ns/op, fastest samples (%.4fx, gate: <= %.2f)\n", bare, off, ratio, maxTracingRatio)
	if ratio > maxTracingRatio {
		return fmt.Errorf("disarmed tracing ratio %.4fx exceeds %.2f", ratio, maxTracingRatio)
	}
	return nil
}

// run reads the four inputs, prints the drift report and checks every
// bound, returning the failures joined.
func run(w io.Writer, basePath, headPath, tracingPath, baselinePath string) error {
	var texts []string
	for _, path := range []string{basePath, headPath, tracingPath, baselinePath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		texts = append(texts, string(data))
	}
	baseline, err := testOutput(texts[3])
	if err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	base, head, tracing := parse(texts[0]), parse(texts[1]), parse(texts[2])
	fmt.Fprintln(w, "== drift: committed baseline vs base-ref re-run (informational) ==")
	drift(w, parse(baseline), base)
	var errs []error
	for _, g := range []struct {
		title string
		check func() error
	}{
		{"base ref vs head, ns/op geomean", func() error { return gateGeomean(w, base, head) }},
		{"indexed vs sampling single source", func() error { return gateIndexed(w, head) }},
		{"kernel v2 vs v1", func() error { return gateV2(w, head) }},
		{"kernel v2 allocations", func() error { return gateV2Allocs(w, head) }},
		{"disarmed tracing", func() error { return gateTracing(w, tracing) }},
	} {
		fmt.Fprintf(w, "== %s ==\n", g.title)
		if err := g.check(); err != nil {
			fmt.Fprintln(w, "FAIL:", err)
			errs = append(errs, err)
		} else {
			fmt.Fprintln(w, "ok")
		}
	}
	return errors.Join(errs...)
}

func main() {
	base := flag.String("base", "base.txt", "the base ref's go test -bench output")
	head := flag.String("head", "current.txt", "the head's go test -bench -benchmem output")
	tracing := flag.String("tracing", "tracing.txt", "BenchmarkTracingOverhead's go test -bench -benchmem output")
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "the committed test2json baseline, for the drift report")
	flag.Parse()
	if err := run(os.Stdout, *base, *head, *tracing, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
