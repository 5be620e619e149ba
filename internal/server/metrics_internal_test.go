package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"usimrank/internal/obs"
)

// bucketForLinear is the original O(buckets) implementation, kept here
// as the reference the constant-time bits.Len64 version is pinned to.
func bucketForLinear(us int64) int {
	if us < 0 {
		us = 0
	}
	bound := int64(histBaseUs)
	for i := 0; i < histBuckets-1; i++ {
		if us <= bound {
			return i
		}
		bound <<= 1
	}
	return histBuckets - 1
}

// TestBucketForMatchesLinearScan exhaustively pins the bits.Len64
// bucketing to the old linear scan: every bucket boundary ±1, a dense
// sweep of the small values, and the extremes.
func TestBucketForMatchesLinearScan(t *testing.T) {
	var cases []int64
	for us := int64(-10); us <= 10_000; us++ {
		cases = append(cases, us)
	}
	bound := int64(histBaseUs)
	for i := 0; i < histBuckets+4; i++ {
		cases = append(cases, bound-1, bound, bound+1)
		bound <<= 1
	}
	cases = append(cases, 1<<62, (1<<63)-1)
	for _, us := range cases {
		if got, want := bucketFor(us), bucketForLinear(us); got != want {
			t.Fatalf("bucketFor(%d) = %d, linear scan says %d", us, got, want)
		}
	}
}

// TestCellLockFreeHammer races many goroutines over a mix of first-seen
// and repeated (shape, alg) cells; under -race in CI this pins the
// copy-on-write publication, and the final counts prove no increment
// was lost to a stale map.
func TestCellLockFreeHammer(t *testing.T) {
	m := NewMetricsRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// A shared hot cell plus a per-iteration cold cell: the
				// hot path must survive concurrent map republication.
				m.RecordQuery("score", "srsp", time.Millisecond, i%2 == 0, nil)
				m.RecordDownstream(fmt.Sprintf("shape%d", g), fmt.Sprintf("alg%d", i%7), time.Microsecond, nil)
			}
		}()
	}
	wg.Wait()
	_, _, stats := m.Snapshot(nil, 0)
	if got := stats["score/srsp"].Count; got != goroutines*perG {
		t.Fatalf("hot cell lost increments: %d of %d", got, goroutines*perG)
	}
	if len(stats) != 1+goroutines*7 {
		t.Fatalf("cells: %d, want %d", len(stats), 1+goroutines*7)
	}
	for g := 0; g < goroutines; g++ {
		var n uint64
		for a := 0; a < 7; a++ {
			n += stats[fmt.Sprintf("shape%d/alg%d", g, a)].Count
		}
		if n != perG {
			t.Fatalf("cold cells for goroutine %d lost increments: %d of %d", g, n, perG)
		}
	}
	// cell must return the same pointer for the same key forever —
	// losing that would split a cell's counters across generations.
	if m.cell("score", "srsp") != m.cell("score", "srsp") {
		t.Fatal("cell identity not stable")
	}
}

func TestRegistryWriteProm(t *testing.T) {
	m := NewMetricsRegistry()
	m.RecordQuery("score", "srsp", 75*time.Microsecond, false, nil)
	m.RecordQuery("score", "srsp", 10*time.Millisecond, true, nil)
	m.RecordDownstream("shard0", "topk", 200*time.Microsecond, nil)
	m.InFlight.Add(2)
	var sb strings.Builder
	pw := obs.NewPromWriter(&sb)
	m.Snapshot(pw, 0)
	if pw.Err() != nil {
		t.Fatalf("Snapshot: %v", pw.Err())
	}
	out := sb.String()
	for _, want := range []string{
		`usimrank_queries_total{shape="score",alg="srsp"} 2`,
		`usimrank_query_coalesce_hits_total{shape="score",alg="srsp"} 1`,
		`usimrank_query_latency_seconds_bucket{shape="score",alg="srsp",le="0.0001"} 1`,
		`usimrank_query_latency_seconds_bucket{shape="score",alg="srsp",le="+Inf"} 2`,
		`usimrank_query_latency_seconds_count{shape="score",alg="srsp"} 2`,
		`usimrank_shard_requests_total{shard="shard0",shape="topk"} 1`,
		`usimrank_shard_request_latency_seconds_bucket{shard="shard0",shape="topk",le="+Inf"} 1`,
		"usimrank_in_flight 2",
		"usimrank_coalesce_misses_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket series must be cumulative: the 10ms observation lands in a
	// later bucket, so every le >= 0.0128 line reports 2.
	if !strings.Contains(out, `le="0.0128"} 2`) {
		t.Fatalf("cumulative bucket counts wrong:\n%s", out)
	}
	// _sum is in seconds.
	if !strings.Contains(out, "usimrank_query_latency_seconds_sum{") {
		t.Fatalf("_sum series missing:\n%s", out)
	}
}
