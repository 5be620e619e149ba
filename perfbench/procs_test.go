package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseStatTicks(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime (14) = 250 and
	// stime (15) = 31 must still be found.
	line := "4242 (usimd (x) y) S 1 4242 4242 0 -1 4194560 812 0 0 0 250 31 0 0 20 0 9 0 123 456 789\n"
	got, err := parseStatTicks([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 281 {
		t.Fatalf("ticks = %d, want 281", got)
	}
	if ms := ticksToMs(got); ms != 2810 {
		t.Fatalf("ticksToMs(281) = %g, want 2810", ms)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 a b c d"} {
		if _, err := parseStatTicks([]byte(bad)); err == nil {
			t.Errorf("parseStatTicks(%q) succeeded", bad)
		}
	}
}

func TestCPUTicksOfThisProcessGrow(t *testing.T) {
	t0, err := cpuTicks(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	// Burn ~30 ms of CPU so at least one tick passes.
	x := 0
	for i := 0; i < 60_000_000; i++ {
		x += i ^ (x >> 3)
	}
	sink = x
	t1, err := cpuTicks(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= t0 {
		t.Fatalf("CPU ticks did not grow: %d -> %d", t0, t1)
	}
	if _, err := peakRSSKiB(os.Getpid()); err != nil {
		t.Fatal(err)
	}
}

var sink int

func TestCPUClockAndDelivered(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	c, err := parseCPUClock([]byte("cpu  100 5 40 9000 7 3 2 50 0 0\ncpu0 50 2 20 4500 3 1 1 25 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.busy != 150 || c.steal != 50 {
		t.Fatalf("clock %+v, want busy 150 steal 50", c)
	}
	// 300 ticks run, 100 stolen: three quarters of the wanted time.
	if d := delivered(cpuClock{1000, 10}, cpuClock{1300, 110}); d != 0.75 {
		t.Fatalf("delivered = %g, want 0.75", d)
	}
	if d := delivered(cpuClock{1000, 10}, cpuClock{1300, 10}); d != 1 {
		t.Fatalf("delivered without steal = %g, want 1", d)
	}
	if _, err := parseCPUClock([]byte("intr 1 2 3\n")); err == nil {
		t.Fatal("a file without the cpu line must fail")
	}
}

func TestParseProm(t *testing.T) {
	text := strings.Join([]string{
		"# HELP usimrank_row_cache_hits_total Row cache hits.",
		"# TYPE usimrank_row_cache_hits_total counter",
		"usimrank_row_cache_hits_total 12",
		`usimrank_shard_requests_total{shard="shard0",shape="batch"} 3`,
		`usimrank_shard_requests_total{shard="shard1",shape="batch"} 4.5`,
		"",
	}, "\n")
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["usimrank_row_cache_hits_total"] != 12 || m["usimrank_shard_requests_total"] != 7.5 {
		t.Fatalf("parsed %v", m)
	}
}
