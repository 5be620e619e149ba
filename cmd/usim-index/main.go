// Command usim-index builds, patches, and inspects the precomputed
// reverse-walk index that usimd serves sublinear single-source queries
// from (-index; see usimrank/internal/index for the format and the
// estimator it backs).
//
// Build an index for a graph (engine flags must match the usimd node
// that will load it — the loader rejects any mismatch):
//
//	usim-index -graph g.ug -out g.usix -N 1000 -seed 1
//
// -update applies a batch of arc mutations through the engine's
// incremental update plane first and writes the successor generation's
// index, patched the same way a serving node patches its resident
// index after /v1/admin/update:
//
//	usim-index -graph g.ug -out g2.usix -update "delete:4,1;insert:0,9,0.5"
//
// Inspect a previously built file's header without loading the engine:
//
//	usim-index -inspect g.usix
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"usimrank"
	"usimrank/internal/ugraph"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "uncertain graph file to index (text or binary)")
		out       = flag.String("out", "", "output index file path")
		inspect   = flag.String("inspect", "", "print an existing index file's metadata and exit")
		c         = flag.Float64("c", 0.6, "decay factor in (0,1)")
		n         = flag.Int("n", 5, "SimRank iterations")
		samples   = flag.Int("N", 1000, "sampled walk pairs")
		l         = flag.Int("l", 1, "two-phase split")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "build worker goroutines (0 = all cores); output is identical for every value")
		update    = flag.String("update", "", `arc mutations applied before indexing: "op:u,v[,p]" triples separated by ';' (op: insert | delete | reweight); the written index is the patched successor generation`)
	)
	flag.Parse()

	if *inspect != "" {
		if *graphPath != "" || *out != "" || *update != "" {
			usage("-inspect takes no build flags")
		}
		x, err := usimrank.LoadIndexFile(*inspect)
		if err != nil {
			fatal(err)
		}
		defer x.Close()
		fmt.Printf("%s\n", *inspect)
		fmt.Printf("  generation  %d\n", x.Generation())
		fmt.Printf("  vertices    %d\n", x.NumVertices())
		fmt.Printf("  depth       %d\n", x.Depth())
		fmt.Printf("  samples     %d\n", x.Samples())
		fmt.Printf("  seed        %d\n", x.Seed())
		return
	}

	if *graphPath == "" {
		usage("-graph is required (or -inspect to read an existing file)")
	}
	if *out == "" {
		usage("-out is required")
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
	if *l < 1 || *l > *n {
		usage(fmt.Sprintf("-l %d outside [1,%d]", *l, *n))
	}
	updates, err := ugraph.ParseUpdateSpec(*update)
	if err != nil {
		usage("-update " + err.Error())
	}

	g, err := usimrank.LoadGraphFile(*graphPath)
	if err != nil {
		fatal(err)
	}
	opt := usimrank.Options{C: *c, Steps: *n, N: *samples, L: *l, Seed: *seed, Parallelism: *workers}
	e, err := usimrank.New(g, opt)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	x, err := usimrank.BuildIndex(e)
	if err != nil {
		fatal(err)
	}
	if len(updates) > 0 {
		// Mirror the serving plane: derive the successor engine through
		// the incremental update plane, then patch only the rows whose
		// reverse walks the mutations can reach — the written file is
		// bit-identical to a fresh build on the mutated graph.
		derived, stats, err := e.ApplyUpdates(updates)
		if err != nil {
			fatal(err)
		}
		patched, rows, err := usimrank.PatchIndex(x, derived, g, updates)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("applied %d update(s): generation %d, index rows patched for %d vertices\n",
			stats.Applied, stats.Generation, rows)
		x = patched
	}
	if err := x.Write(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: generation %d, %d vertices x %d steps, N=%d, seed=%d (%s)\n",
		*out, x.Generation(), x.NumVertices(), x.Depth()+1, x.Samples(), x.Seed(),
		time.Since(start).Round(time.Millisecond))
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "usim-index:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "usim-index:", err)
	os.Exit(1)
}
