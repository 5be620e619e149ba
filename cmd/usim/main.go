// Command usim computes SimRank similarities on an uncertain graph with
// any of the algorithms from the paper, in four query shapes:
//
//	usim -graph g.ug -u 3 -v 17 -alg srsp            # one pair
//	usim -graph g.ug -source 3 -alg srsp             # s(3, ·) for every vertex
//	usim -graph g.ug -source 3 -topk 10 -alg srsp    # 10 most similar to 3
//	usim -graph g.ug -topk 10 -alg baseline          # 10 most similar pairs
//
// -update applies a batch of arc mutations through the engine's
// incremental update plane before the query runs, printing what the
// targeted invalidation retained:
//
//	usim -graph g.ug -u 3 -v 17 -update "reweight:3,17,0.9;delete:4,1;insert:0,9,0.5"
//
// -subscribe follows a standing query against a running usimd instead
// of computing locally: it opens the node's /v1/subscribe SSE stream,
// prints the initial snapshot, then prints one event per server push
// (the shape comes from the same -u/-v/-source/-topk flags):
//
//	usim -subscribe http://localhost:8471 -source 3 -alg srsp
//	usim -subscribe http://localhost:8471 -u 3 -v 17 -alg sampling -staleness 2s
//
// Single-source and top-k queries run on the engine's one-pass
// single-source kernels, so the source's sampling work is done once for
// the whole query; scores are bit-identical to the pairwise shape.
//
// The graph file is the textual format ("ug <n> <m>" header and
// "<u> <v> <p>" lines) or the binary format when the file starts with
// the USGR magic.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"usimrank"
	"usimrank/internal/sub"
	"usimrank/internal/ugraph"
)

// baselineAlgs are the -alg values outside the shared engine (the
// deterministic/expected-measure baselines); everything else must
// parse through usimrank.ParseAlgorithm, the one name list the CLI
// shares with the serving plane.
var baselineAlgs = []string{"det", "du", "jaccard"}

func main() {
	// The -alg values: the engine strategies that need no index, named
	// by the engine's strategy table, then the baselines.
	var algs []string
	for _, a := range usimrank.Algorithms() {
		algs = append(algs, strings.ToLower(a.String()))
	}
	algs = append(algs, baselineAlgs...)
	var (
		graphPath = flag.String("graph", "", "uncertain graph file (text or binary)")
		u         = flag.Int("u", 0, "first vertex")
		v         = flag.Int("v", 1, "second vertex")
		alg       = flag.String("alg", "srsp", "algorithm: "+strings.Join(algs, " | "))
		c         = flag.Float64("c", 0.6, "decay factor in (0,1)")
		n         = flag.Int("n", 5, "SimRank iterations")
		samples   = flag.Int("N", 1000, "sampled walk pairs")
		l         = flag.Int("l", 1, "two-phase split")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "sampling worker goroutines (0 = all cores); results are identical for every value")
		source    = flag.Int("source", -1, "single-source mode: compute s(source, ·) instead of one pair")
		topK      = flag.Int("topk", 0, "top-k mode: report the k best candidates (with -source) or vertex pairs (without)")
		update    = flag.String("update", "", `arc mutations applied before the query: "op:u,v[,p]" triples separated by ';' (op: insert | delete | reweight)`)
		eps       = flag.Float64("eps", 0, "adaptive accuracy: sample until the confidence radius is ≤ eps instead of spending the full -N budget (0 = fixed budget)")
		delta     = flag.Float64("delta", 0, "adaptive failure probability (requires -eps; 0 selects the default 0.05)")
		subscribe = flag.String("subscribe", "", "follow mode: base URL of a running usimd (e.g. http://localhost:8471); streams the standing query named by -u/-v/-source/-topk instead of computing locally")
		staleness = flag.Duration("staleness", 0, "with -subscribe: staleness SLA — how long the server may batch updates before pushing")
	)
	flag.Parse()

	if *subscribe != "" {
		followSubscription(*subscribe, *alg, *u, *v, *source, *topK, *staleness)
		return
	}

	// Validate every flag up front: bad input exits 2 with a usage
	// message instead of surfacing as an engine error (or worse, a
	// panic) deep inside the computation.
	if *graphPath == "" {
		usage("-graph is required")
	}
	engineAlg, algErr := usimrank.ParseAlgorithm(*alg)
	if algErr != nil && !slices.Contains(baselineAlgs, *alg) {
		usage(fmt.Sprintf("unknown algorithm %q (want %s)", *alg, strings.Join(algs, ", ")))
	}
	if algErr == nil && !slices.Contains(usimrank.Algorithms(), engineAlg) {
		usage(fmt.Sprintf("algorithm %q needs a reverse-walk index, which usim does not load (query it through usimd -index)", *alg))
	}
	if !(*c > 0 && *c < 1) {
		usage(fmt.Sprintf("-c %v outside (0,1)", *c))
	}
	if *n < 1 {
		usage(fmt.Sprintf("-n %d < 1", *n))
	}
	if *samples < 1 {
		usage(fmt.Sprintf("-N %d < 1", *samples))
	}
	// l = 0 is rejected rather than passed through: the engine treats a
	// zero L as "unset" and silently defaults it to 1, which would make
	// the flag lie about the split actually used.
	if *l < 1 || *l > *n {
		usage(fmt.Sprintf("-l %d outside [1,%d]", *l, *n))
	}
	if *topK < 0 {
		usage(fmt.Sprintf("-topk %d < 0", *topK))
	}
	if (*source >= 0 || *topK > 0) && algErr != nil {
		usage(fmt.Sprintf("algorithm %q does not support -source/-topk (use an engine algorithm)", *alg))
	}
	if *eps < 0 {
		usage(fmt.Sprintf("-eps %v < 0", *eps))
	}
	if *delta != 0 && *eps == 0 {
		usage("-delta requires -eps")
	}
	if *delta < 0 || *delta >= 1 {
		usage(fmt.Sprintf("-delta %v outside (0,1)", *delta))
	}
	if *eps > 0 && algErr != nil {
		usage(fmt.Sprintf("algorithm %q does not support -eps (use an engine algorithm)", *alg))
	}
	// Update syntax is validated before the (possibly slow) graph load;
	// semantic failures (missing arcs, out-of-range vertices) surface
	// from the engine's own staging validation below.
	updates, err := ugraph.ParseUpdateSpec(*update)
	if err != nil {
		usage("-update " + err.Error())
	}
	g, err := usimrank.LoadGraphFile(*graphPath)
	if err != nil {
		fatal(err)
	}
	// Vertex-id validation needs the graph's size, so it runs right
	// after the load — still before any engine work starts.
	nv := g.NumVertices()
	checkVertex := func(name string, v int) {
		if v < 0 || v >= nv {
			usage(fmt.Sprintf("%s %d out of range [0,%d)", name, v, nv))
		}
	}
	if *source >= 0 {
		checkVertex("-source", *source)
	} else if *topK == 0 {
		checkVertex("-u", *u)
		checkVertex("-v", *v)
	}
	if *topK > 0 && *source < 0 && nv < 2 {
		usage(fmt.Sprintf("-topk needs at least 2 vertices, graph has %d", nv))
	}
	opt := usimrank.Options{C: *c, Steps: *n, N: *samples, L: *l, Seed: *seed, Parallelism: *workers}

	// buildEngine constructs the engine and, when -update was given,
	// routes the mutations through the incremental update plane —
	// deriving the queried engine exactly as a serving plane would,
	// and reporting what the targeted invalidation retained.
	buildEngine := func() *usimrank.Engine {
		e, err := usimrank.New(g, opt)
		if err != nil {
			fatal(err)
		}
		if len(updates) == 0 {
			return e
		}
		derived, stats, err := e.ApplyUpdates(updates)
		if err != nil {
			fatal(err)
		}
		g = derived.Graph()
		fmt.Printf("applied %d update(s): generation %d, rows evicted %d / retained %d, |E| now %d\n",
			stats.Applied, stats.Generation, stats.RowsEvicted, stats.RowsRetained, g.NumArcs())
		return derived
	}
	// The deterministic/expected-measure baselines have no engine; give
	// them the mutated graph directly.
	if len(updates) > 0 && algErr != nil {
		mut, err := g.Apply(updates)
		if err != nil {
			fatal(err)
		}
		g = mut
	}

	// printAdaptive reports how an -eps query converged, after the
	// shape's own output.
	ao := usimrank.AdaptiveOptions{Eps: *eps, Delta: *delta}
	printAdaptive := func(res usimrank.AdaptiveResult) {
		d := *delta
		if d == 0 {
			d = usimrank.AdaptiveDefaultDelta
		}
		fmt.Printf("adaptive: eps=%g delta=%g radius=%.3g walks=%d rounds=%d converged=%v partial=%v\n",
			*eps, d, res.Radius, res.Walks, res.Rounds, res.Converged, res.Partial)
	}

	if *source >= 0 || *topK > 0 {
		a := engineAlg
		e := buildEngine()
		switch {
		case *source >= 0 && *topK > 0 && *eps > 0:
			res, info, err := usimrank.TopKSimilarAdaptiveCtx(context.Background(), e, a, *source, *topK, ao)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("top-%d most similar to %d  [%s, n=%d, c=%g]\n", *topK, *source, *alg, *n, *c)
			for rank, r := range res {
				fmt.Printf("%3d. v=%-8d s=%.8f\n", rank+1, r.V, r.Score)
			}
			printAdaptive(info)
		case *source >= 0 && *topK > 0:
			res, err := usimrank.TopKSimilar(e, a, *source, *topK)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("top-%d most similar to %d  [%s, n=%d, c=%g]\n", *topK, *source, *alg, *n, *c)
			for rank, r := range res {
				fmt.Printf("%3d. v=%-8d s=%.8f\n", rank+1, r.V, r.Score)
			}
		case *source >= 0 && *eps > 0:
			res, err := e.AdaptiveSingleSource(a, *source, ao)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("s(%d, ·)  [%s, n=%d, c=%g]\n", *source, *alg, *n, *c)
			for v, s := range res.Scores {
				fmt.Printf("%d %.8f\n", v, s)
			}
			printAdaptive(res)
		case *source >= 0:
			scores, err := e.SingleSource(a, *source)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("s(%d, ·)  [%s, n=%d, c=%g]\n", *source, *alg, *n, *c)
			for v, s := range scores {
				fmt.Printf("%d %.8f\n", v, s)
			}
		case *eps > 0: // -topk without -source: best pairs, adaptive
			res, info, err := usimrank.TopKPairsAdaptiveCtx(context.Background(), e, a, *topK, nil, ao)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("top-%d most similar pairs  [%s, n=%d, c=%g]\n", *topK, *alg, *n, *c)
			for rank, r := range res {
				fmt.Printf("%3d. (%d, %d)  s=%.8f\n", rank+1, r.U, r.V, r.Score)
			}
			printAdaptive(info)
		default: // -topk without -source: best pairs
			res, err := usimrank.TopKPairs(e, a, *topK)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("top-%d most similar pairs  [%s, n=%d, c=%g]\n", *topK, *alg, *n, *c)
			for rank, r := range res {
				fmt.Printf("%3d. (%d, %d)  s=%.8f\n", rank+1, r.U, r.V, r.Score)
			}
		}
		return
	}
	var s float64
	var adaptiveRes *usimrank.AdaptiveResult
	switch {
	case algErr == nil && *eps > 0:
		e := buildEngine()
		res, err := e.AdaptiveCompute(engineAlg, *u, *v, ao)
		if err != nil {
			fatal(err)
		}
		s, adaptiveRes = res.Score, &res
	case algErr == nil:
		e := buildEngine()
		s, err = e.Compute(engineAlg, *u, *v)
		if err != nil {
			fatal(err)
		}
	case *alg == "det":
		s = usimrank.DeterministicSimRank(g.Skeleton(), *u, *v, *c, *n)
	case *alg == "du":
		s = usimrank.DuSimRank(g, *u, *v, *c, *n)
	case *alg == "jaccard":
		s = usimrank.ExpectedJaccard(g, *u, *v)
	}
	fmt.Printf("s(%d,%d) = %.8f  [%s, n=%d, c=%g]\n", *u, *v, s, *alg, *n, *c)
	fmt.Printf("truncation bound (Thm 2): %.2g\n", usimrank.ErrorBound(*c, *n))
	if adaptiveRes != nil {
		printAdaptive(*adaptiveRes)
	}
}

// followSubscription opens a /v1/subscribe stream on a running usimd
// and prints every event: an "event=<name> id=<generation>" line, then
// the payload verbatim (the exact JSON body a cold query of the same
// shape would return). Keep-alive comments are skipped. Exits 0 when
// the server shuts the stream down cleanly, 1 on a terminal error.
func followSubscription(base, alg string, u, v, source, topK int, staleness time.Duration) {
	q := url.Values{}
	q.Set("alg", alg)
	switch {
	case source >= 0 && topK > 0:
		q.Set("shape", "topk")
		q.Set("u", strconv.Itoa(source))
		q.Set("k", strconv.Itoa(topK))
	case source >= 0:
		q.Set("shape", "source")
		q.Set("u", strconv.Itoa(source))
	case topK > 0:
		usage("-subscribe needs -source with -topk (the best-pairs shape is not subscribable)")
	default:
		q.Set("shape", "score")
		q.Set("u", strconv.Itoa(u))
		q.Set("v", strconv.Itoa(v))
	}
	if staleness > 0 {
		q.Set("staleness_ms", strconv.FormatInt(staleness.Milliseconds(), 10))
	}
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/v1/subscribe?" + q.Encode())
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fatal(fmt.Errorf("subscribe: %s\n%s", resp.Status, body))
	}
	br := bufio.NewReader(resp.Body)
	for {
		f, err := sub.ReadFrame(br)
		if err == io.EOF {
			return
		}
		if err != nil {
			fatal(fmt.Errorf("subscribe stream: %w", err))
		}
		if f.Comment() {
			continue
		}
		fmt.Printf("event=%s id=%d\n", f.Name(), f.ID())
		if d := f.Data(); d != nil {
			os.Stdout.Write(d)
		}
		switch f.Name() {
		case "shutdown":
			return
		case "gone", "error":
			os.Exit(1)
		}
	}
}

// usage reports a bad invocation: the message, the flag summary, and
// exit code 2 (the flag package's own convention).
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "usim:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "usim:", err)
	os.Exit(1)
}
