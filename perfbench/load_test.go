package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestZipfStreamDeterministic(t *testing.T) {
	draw := func(seed uint64) []string {
		g := newMixGen(seed, 4096)
		var out []string
		for i := 0; i < 200; i++ {
			out = append(out, string(nodeReadMix(g).body))
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs for the same seed: %s vs %s", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > 20 {
		t.Errorf("seeds 7 and 8 share %d of 200 requests", same)
	}
}

func TestZipfSkew(t *testing.T) {
	r := newRNG(1, 1)
	z := newZipf(1000, 1.0, r)
	counts := map[int]int{}
	for i := 0; i < 100_000; i++ {
		counts[z.sample(r)]++
	}
	top, tenth := counts[z.perm[0]], counts[z.perm[9]]
	// P(rank 1) / P(rank 10) = 10 under s = 1.
	if ratio := float64(top) / float64(tenth); ratio < 8 || ratio > 12 {
		t.Errorf("rank-1 / rank-10 frequency = %.2f, want ~10", ratio)
	}
}

func TestUpdateBodiesDeterministic(t *testing.T) {
	a := &arcList{n: 4, u: []int{0, 1, 2, 3}, v: []int{1, 2, 3, 0}, p: []float64{.5, .5, .5, .5}}
	ws := &writeSpec{arcsPerBatch: 3}
	x, y := updateBodies(3, a, ws, 5, 0), updateBodies(3, a, ws, 5, 0)
	z := updateBodies(3, a, ws, 5, 1)
	for k := range x {
		if !bytes.Equal(x[k], y[k]) {
			t.Fatalf("batch %d differs for the same seed", k)
		}
	}
	if bytes.Equal(x[0], z[0]) && bytes.Equal(x[1], z[1]) {
		t.Error("phases draw the same batches")
	}
}

func TestReachBandLimitsUpdateArcs(t *testing.T) {
	// 0 → 1 → 2 → 3 → 4 → 5: vertex v is reached within 4 hops by
	// min(v, 4) + 1 of the 6 vertices.
	a := &arcList{n: 6, u: []int{0, 1, 2, 3, 4}, v: []int{1, 2, 3, 4, 5}, p: []float64{.5, .5, .5, .5, .5}}
	share := reachShare(a, 4)
	for v, want := range []float64{1, 2, 3, 4, 5, 5} {
		if share[v] != want/6 {
			t.Fatalf("reach share of %d = %g, want %g/6", v, share[v], want)
		}
	}
	// Heads 2 and 3 (shares 3/6 and 4/6) are the arcs 1→2 and 2→3.
	ws := &writeSpec{reach: [2]float64{0.45, 0.7}}
	if got := ws.eligible(a); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("eligible arcs %v, want [1 2]", got)
	}
	if got := (&writeSpec{}).eligible(a); len(got) != 5 {
		t.Fatalf("without a band every arc is eligible, got %v", got)
	}
}

// A slow first update makes the next ones late; each latency must
// count from the scheduled time, and lateness from schedule to send.
func TestOpenLoopLateness(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := n.Add(1)
		if k == 1 {
			time.Sleep(120 * time.Millisecond)
		}
		fmt.Fprintf(w, `{"generation":%d,"applied":1}`, k+1)
	}))
	defer srv.Close()
	interval := 30 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	bs := openLoopWrites(newClient(1), srv.URL, start, interval, [][]byte{[]byte(`{}`), []byte(`{}`), []byte(`{}`), []byte(`{}`), []byte(`{}`), []byte(`{}`)}, nil)
	for k, b := range bs {
		if b.err != nil {
			t.Fatalf("batch %d: %v", k, b.err)
		}
		if want := start.Add(time.Duration(k) * interval); !b.sched.Equal(want) {
			t.Fatalf("batch %d scheduled at %v, want %v", k, b.sched, want)
		}
		if b.sent.Before(b.sched) {
			t.Fatalf("batch %d sent before it was due", k)
		}
		if b.gen != uint64(k+2) {
			t.Fatalf("batch %d acked generation %d", k, b.gen)
		}
	}
	// Batch 1 was due at +30ms but could only go after batch 0's ack at
	// ~+120ms: it ran at least 80ms late.
	if late := bs[1].sent.Sub(bs[1].sched); late < 80*time.Millisecond {
		t.Errorf("batch 1 late by %v, want >= 80ms", late)
	}
	// The generator catches up: the last batch goes on time again.
	if late := bs[5].sent.Sub(bs[5].sched); late > 25*time.Millisecond {
		t.Errorf("batch 5 late by %v after catching up", late)
	}
	meanMs, maxMs := lateness(bs)
	if maxMs < 80 || meanMs <= 0 || meanMs > maxMs {
		t.Errorf("lateness mean %.1fms max %.1fms", meanMs, maxMs)
	}
}

func TestPushLagsCountCoalescedGenerations(t *testing.T) {
	t0 := time.Now()
	bs := []*updateBatch{
		{sched: t0, gen: 2},
		{sched: t0.Add(100 * time.Millisecond), gen: 3},
		{sched: t0.Add(200 * time.Millisecond), gen: 4},
		{sched: t0.Add(300 * time.Millisecond), err: fmt.Errorf("failed")},
	}
	pushes := []push{
		{gen: 2, at: t0.Add(10 * time.Millisecond)},
		// generation 3 folded into the push of generation 4
		{gen: 4, at: t0.Add(250 * time.Millisecond)},
	}
	lags, coalesced := pushLags(bs, pushes)
	if coalesced != 1 {
		t.Errorf("coalesced = %d, want 1", coalesced)
	}
	if len(lags) != 2 || lags[0] != 10 || lags[1] != 50 {
		t.Errorf("lags = %v, want [10 50]", lags)
	}
}
