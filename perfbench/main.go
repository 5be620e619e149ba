// Command perfbench is the repository benchmark: it boots fresh usimd
// node and coordinator processes on stored graphs, drives one workload
// from this single load process, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output.
//
// Run it from the repository root through run.sh, which builds the
// servers and this harness first:
//
//	bash perfbench/run.sh --workload node-read --seed 1 --seconds 15 --trace 0
//
// Extra modes: -report K repeats a workload K times and prints each
// metric's median, quartiles and spread against its bound; -score-sweep
// K re-runs the score probes under K server seeds; -mkinputs DIR
// regenerates the stored graphs and exact references.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding usimd and usim-index
	work     string // scratch directory for graphs, indexes and logs
	inputs   string // stored graphs and references
	// serverSeed, when non-zero, is passed to usimd and usim-index as
	// -seed (the score sweep varies it).
	serverSeed uint64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	cfg       config
	w         *workload
	ref       *reference
	graphPath string
	arcs      *arcList
	dir       string
	ctl       *http.Client // control plane: health, probes, checks
	clients   int          // closed-loop clients = CPUs
	out       *result
	errs      []string
}

// fail records a failed operation or output check.
func (b *bench) fail(err error) {
	b.out.Failed++
	if len(b.errs) < 10 {
		b.errs = append(b.errs, err.Error())
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.out.Metrics[name] = metric{v, unit}
}

func main() {
	var cfg config
	var traceFlag, report, sweep int
	var varySeed bool
	var mk string
	flag.StringVar(&cfg.workload, "workload", "", "workload: node-read, cluster-fanout, write-push or index-patch")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: request streams, update batches and subscriptions")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory with the built usimd and usim-index")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	flag.StringVar(&cfg.inputs, "inputs", "perfbench/inputs", "stored graphs and exact references")
	flag.IntVar(&report, "report", 0, "steadiness report: run the workload this many times and summarise each metric")
	flag.BoolVar(&varySeed, "vary-seed", false, "report: use seed, seed+1, ... instead of one seed")
	flag.IntVar(&sweep, "score-sweep", 0, "run the score probes under this many server seeds and summarise score_err")
	flag.StringVar(&mk, "mkinputs", "", "regenerate the stored graphs and exact references into this directory")
	flag.Parse()
	cfg.trace = traceFlag == 1

	var err error
	switch {
	case mk != "":
		err = makeInputs(mk)
	case report > 0:
		err = steadinessReport(cfg, report, varySeed)
	case sweep > 0:
		err = scoreSweep(cfg, sweep)
	default:
		var res *result
		if res, err = run(cfg); err == nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// newBench prepares a run: the workload, its unpacked graph and a
// scratch directory, which the caller removes with b.close.
func newBench(cfg config) (*bench, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.bin == "" || cfg.work == "" {
		return nil, errors.New("-bin and -work are required (use run.sh)")
	}
	if cfg.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	ref, err := loadReference(cfg.inputs)
	if err != nil {
		return nil, err
	}
	spec, err := ref.graph(w.graph)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		cfg: cfg, w: w, ref: ref, dir: dir,
		graphPath: filepath.Join(dir, w.graph+".txt"),
		ctl:       newClient(2),
		clients:   runtime.NumCPU(),
		out:       &result{Metrics: map[string]metric{}},
	}
	if b.arcs, err = unpackGraph(cfg.inputs, spec, b.graphPath); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.dir) }

// run performs one benchmark run and returns its result line.
func run(cfg config) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if cfg.trace {
		err = b.traced()
	} else {
		err = b.measured()
	}
	if err != nil {
		return nil, err
	}
	b.out.Correct = b.out.Failed == 0
	for _, e := range b.errs {
		fmt.Println("FAILED:", e)
	}
	return b.out, nil
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 3

// setup boots the workload setups times, keeping the last fleet, and
// returns it with the median set-up time in seconds. Each set-up runs
// from the first launched process (or the index build) until every
// server is healthy and the fixed warm-up set has been answered.
func (b *bench) setup(setups int) (*fleet, float64, error) {
	var f *fleet
	var times []float64
	warm := b.w.warmRequests(b.arcs)
	for i := 0; i < setups; i++ {
		f.stop()
		t0, c0 := time.Now(), readCPUClock()
		var err error
		if f, err = b.start(b.w, fmt.Sprintf("setup%d", i)); err != nil {
			return nil, 0, err
		}
		for _, r := range warm {
			status, _, body, err := post(bg, b.ctl, f.entry().url, r.path, r.body)
			if err == nil {
				_, err = validate(r, status, body)
			}
			if err != nil {
				f.stop()
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		// Scaled to the CPU share the host delivered, like every
		// wall-clock figure (see delivered).
		times = append(times, time.Since(t0).Seconds()*delivered(c0, readCPUClock()))
	}
	sort.Float64s(times)
	return f, median(times), nil
}

// measured is the untraced run: set-up, score probes, the measured
// window, output checks, and every end-to-end metric.
func (b *bench) measured() error {
	f, setupS, err := b.setup(setupRuns)
	if err != nil {
		return err
	}
	defer f.stop()
	b.set("setup_s", setupS, "s")
	scoreErr, err := b.scoreErr(f)
	if err != nil {
		return err
	}
	b.set("score_err", scoreErr, "abs")

	m, err := b.runWindow(f, nil, b.window(), 0, 0)
	if err != nil {
		return err
	}
	var rssKiB int64
	for _, p := range f.all() {
		k, err := peakRSSKiB(p.pid())
		if err != nil {
			return err
		}
		rssKiB += k
	}
	okFrac := float64(b.out.Attempted-b.out.Failed) / float64(b.out.Attempted)
	b.set("throughput_ops", m.throughput, "1/s")
	b.set("p50_ms", m.p50, "ms")
	b.set("tail_ms", m.tail, "ms")
	b.set("visible_p50_ms", m.visible, "ms")
	b.set("cpu_ms_per_op", m.cpuPerOp, "ms")
	b.set("peak_rss_mb", float64(rssKiB)/1024, "MiB")
	b.set("ok_frac", okFrac, "frac")
	fmt.Printf("%s seed=%d: %d ops in %.2fs, tail=p%g over >= %d samples, host delivered %.3f of the CPU time wanted%s\n",
		b.w.name, b.cfg.seed, m.ops, m.elapsed.Seconds(), m.tailQ, m.samples, m.delivered, m.note)
	printMetrics(b.out.Metrics)
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
