package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the reports read.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bounds maps each end-to-end metric to its bound, from BENCHMARK.json
// in the working directory (empty when there is none).
func bounds() map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var s benchSpec
	if json.Unmarshal(raw, &s) != nil {
		return out
	}
	for _, m := range s.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// steadinessReport runs the workload k times (same seed, or seed,
// seed+1, ... with vary) and prints, for every metric, the median, the
// quartiles and the spread (interquartile distance over the median)
// against its bound, plus each run's host steal time.
func steadinessReport(cfg config, k int, vary bool) error {
	if k < 2 {
		return fmt.Errorf("-report needs at least 2 runs")
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var steal []int64
	for i := 0; i < k; i++ {
		c := cfg
		if vary {
			c.seed = cfg.seed + uint64(i)
		}
		c0 := readCPUClock()
		res, err := run(c)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		steal = append(steal, readCPUClock().steal-c0.steal)
		if !res.Correct {
			fmt.Printf("run %d: output checks FAILED (%d of %d operations)\n", i+1, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	bs := bounds()
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\nsteadiness of %s over %d runs (vary seed: %v)\n", cfg.workload, k, vary)
	fmt.Printf("%-32s %-6s %12s %12s %12s %8s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		sp := spread(values[name])
		bound, ok := bs[name]
		verdict := ""
		switch {
		case !ok:
		case sp <= bound/3:
			verdict = "steady"
		case sp <= bound:
			verdict = "within bound"
		default:
			verdict = "TOO WIDE"
		}
		bstr := "-"
		if ok {
			bstr = fmt.Sprintf("%.3f", bound)
		}
		fmt.Printf("%-32s %-6s %12.6g %12.6g %12.6g %8.4f %6s  %s\n", name, units[name], q2, q1, q3, sp, bstr, verdict)
	}
	fmt.Printf("host steal ticks per run: %v\n", steal)
	return nil
}

// scoreSweep re-runs the score probes under k server seeds (1..k), to
// show that the score_err bound covers a legitimate change of the
// servers' random streams.
func scoreSweep(cfg config, k int) error {
	var errs []float64
	for s := 1; s <= k; s++ {
		c := cfg
		c.serverSeed = uint64(s)
		b, err := newBench(c)
		if err != nil {
			return err
		}
		f, _, err := b.setup(1)
		if err != nil {
			b.close()
			return err
		}
		e, err := b.scoreErr(f)
		f.stop()
		b.close()
		if err != nil {
			return err
		}
		if b.out.Failed > 0 {
			return fmt.Errorf("server seed %d: %d probe answers failed their checks", s, b.out.Failed)
		}
		fmt.Printf("server seed %2d: score_err %.6g\n", s, e)
		errs = append(errs, e)
	}
	lo, hi := sorted(errs)[0], sorted(errs)[len(errs)-1]
	q1, q2, q3 := quartiles(errs)
	fmt.Printf("%s score_err over %d server seeds: median %.6g, quartiles %.6g..%.6g, spread %.4f, range %+.1f%%..%+.1f%% of the median, bound %.3f\n",
		cfg.workload, k, q2, q1, q3, spread(errs), 100*(lo/q2-1), 100*(hi/q2-1), bounds()["score_err"])
	return nil
}
