package server

import (
	"context"
	"sync/atomic"
	"testing"

	"usimrank"
	"usimrank/internal/obs"
)

// BenchmarkServerThroughput measures end-to-end queries/sec per shape
// through the full serving stack — JSON decode, admission, coalescing,
// engine kernel, JSON encode — with concurrent clients (RunParallel),
// the server-side figure the CI perf-trajectory artifact (BENCH_3)
// tracks across PRs. Client counters vary the requests so the numbers
// reflect distinct-query throughput, not coalescing on one hot key.
func BenchmarkServerThroughput(b *testing.B) {
	g := testGraph()
	nv := g.NumVertices()
	s, err := New(g, "bench://rmat6", Config{Engine: usimrank.Options{N: 400, Seed: 7}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.WarmFilters()

	var seq atomic.Int64
	shapes := []struct {
		name string
		call func(i int) (int, error)
	}{
		{"score_srsp", func(i int) (int, error) {
			var resp ScoreResponse
			return callE(s, "POST", "/v1/score", ScoreRequest{Alg: "srsp", U: i % nv, V: (i * 7) % nv}, &resp)
		}},
		{"score_sampling", func(i int) (int, error) {
			var resp ScoreResponse
			return callE(s, "POST", "/v1/score", ScoreRequest{Alg: "sampling", U: i % nv, V: (i * 7) % nv}, &resp)
		}},
		{"source_srsp", func(i int) (int, error) {
			var resp SourceResponse
			return callE(s, "POST", "/v1/source", SourceRequest{Alg: "srsp", U: i % nv}, &resp)
		}},
		{"topk_srsp", func(i int) (int, error) {
			u := i % nv
			var resp TopKResponse
			return callE(s, "POST", "/v1/topk", TopKRequest{Alg: "srsp", U: &u, K: 10}, &resp)
		}},
		{"batch_twophase", func(i int) (int, error) {
			u := i % nv
			pairs := [][2]int{{u, (u + 1) % nv}, {u, (u + 5) % nv}, {u, (u + 9) % nv}}
			var resp BatchResponse
			return callE(s, "POST", "/v1/batch", BatchRequest{Alg: "twophase", Pairs: pairs}, &resp)
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(seq.Add(1))
					code, err := shape.call(i)
					if err != nil || code != 200 {
						b.Errorf("%s: status %d err %v", shape.name, code, err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
	if hits := s.metrics.coalesceHits.Load(); hits > 0 {
		b.Logf("coalescing hits during benchmark: %d", hits)
	}
}

// BenchmarkTracingOverhead pins the cost of the observability plane
// when tracing is DISARMED — the steady state of every production
// query that carries no trace header, no debug flag, and runs under no
// slow-query threshold. The bare leg is the naked zero-allocation v2
// kernel call; the off leg wraps the identical call in exactly the
// disabled-tracing span operations the query pipeline (Plane.Run) performs
// per query (nil *Trace, zero Spans, context pass-through, the
// ambient-span lookup the kernel wrappers do). CI gates the off leg at
// 0 allocs/op and within 2% of bare ns/op: tracing must be free until
// armed.
func BenchmarkTracingOverhead(b *testing.B) {
	e, err := usimrank.New(testGraph(), usimrank.Options{N: 400, Seed: 7, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Compute(usimrank.AlgSamplingV2, 3, 17); err != nil { // build the v2 plan + warm the pools offline
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Compute(usimrank.AlgSamplingV2, 3, 17); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		var tr *obs.Trace // disarmed: what Plane.trace returns without a consumer
		root := tr.Start("score")
		for i := 0; i < b.N; i++ {
			asp := root.Start("admission_wait")
			asp.End()
			csp := root.Start("coalesce")
			eng := root.Start("engine_compute")
			cctx := obs.ContextWithSpan(ctx, eng)
			sp := obs.SpanFromContext(cctx).Start("kernel_pair")
			sp.Add("walks", 1)
			_, err := e.Compute(usimrank.AlgSamplingV2, 3, 17)
			sp.Error(err)
			sp.End()
			eng.End()
			if csp.Enabled() {
				csp.Add("leader", 1)
			}
			csp.End()
			root.Error(err)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
