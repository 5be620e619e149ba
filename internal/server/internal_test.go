package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupCoalesces: N concurrent callers with one key execute
// the function exactly once; exactly one caller is the leader
// (shared=false), the rest are coalescing hits.
func TestFlightGroupCoalesces(t *testing.T) {
	g := NewFlightGroup()
	release := make(chan struct{})
	var execs atomic.Int64
	var leaders, followers atomic.Int64
	const callers = 16
	var wg, ready sync.WaitGroup
	ready.Add(callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			val, shared, err := g.Do(context.Background(), "k", nil, func() func() (any, error) {
				return func() (any, error) {
					execs.Add(1)
					<-release // hold the flight open until all callers joined
					return 42, nil
				}
			})
			if err != nil || val.(int) != 42 {
				t.Errorf("do = (%v, %v)", val, err)
			}
			if shared {
				followers.Add(1)
			} else {
				leaders.Add(1)
			}
		}()
	}
	// Release the flight only once every caller is at (or inside) its
	// do call, so all of them land on the one open flight.
	ready.Wait()
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if execs.Load() != 1 {
		t.Fatalf("function executed %d times, want 1", execs.Load())
	}
	if leaders.Load() != 1 || followers.Load() != callers-1 {
		t.Fatalf("leaders=%d followers=%d, want 1/%d", leaders.Load(), followers.Load(), callers-1)
	}
}

// TestFlightGroupRecoversPanic: a panic inside the flight becomes the
// flight's error (shared by every caller) instead of killing the
// process, and the key is cleaned up so later calls run fresh.
func TestFlightGroupRecoversPanic(t *testing.T) {
	g := NewFlightGroup()
	_, _, err := g.Do(context.Background(), "k", nil, func() func() (any, error) {
		return func() (any, error) { panic("engine blew up") }
	})
	if err == nil || err.Error() != "query panicked: engine blew up" {
		t.Fatalf("panicking flight returned err %v", err)
	}
	val, _, err := g.Do(context.Background(), "k", nil, func() func() (any, error) {
		return func() (any, error) { return "recovered", nil }
	})
	if err != nil || val.(string) != "recovered" {
		t.Fatalf("flight after panic = (%v, %v)", val, err)
	}
}

// TestFlightGroupDistinctKeys: different keys never share an
// execution.
func TestFlightGroupDistinctKeys(t *testing.T) {
	g := NewFlightGroup()
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(context.Background(), string(rune('a'+i)), nil, func() func() (any, error) {
				return func() (any, error) { execs.Add(1); return i, nil }
			})
		}(i)
	}
	wg.Wait()
	if execs.Load() != 8 {
		t.Fatalf("executed %d times, want 8", execs.Load())
	}
}

// TestFlightGroupWaiterTimeout: a caller whose context expires abandons
// the wait with the context error, while the flight completes for
// patient callers.
func TestFlightGroupWaiterTimeout(t *testing.T) {
	g := NewFlightGroup()
	release := make(chan struct{})
	started := make(chan struct{})
	type result struct {
		val any
		err error
	}
	patient := make(chan result, 1)
	go func() {
		val, _, err := g.Do(context.Background(), "k", nil, func() func() (any, error) {
			close(started)
			return func() (any, error) { <-release; return "slow", nil }
		})
		patient <- result{val, err}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, shared, err := g.Do(ctx, "k", nil, func() func() (any, error) {
		t.Error("impatient caller must join, not lead")
		return func() (any, error) { return nil, nil }
	})
	if !shared || err != context.DeadlineExceeded {
		t.Fatalf("impatient caller: shared=%v err=%v", shared, err)
	}
	close(release)
	res := <-patient
	if res.err != nil || res.val.(string) != "slow" {
		t.Fatalf("patient caller got (%v, %v)", res.val, res.err)
	}
}

// TestEngineHandleDrain: the drained channel closes exactly when the
// owner reference and every pin are gone, and a drained handle rejects
// new pins (the swap race).
func TestEngineHandleDrain(t *testing.T) {
	h := newEngineHandle(nil, nil, "test", 1, nil)
	if !h.tryAcquire() {
		t.Fatal("pin on live handle failed")
	}
	h.release() // server drops ownership (the hot-swap)
	select {
	case <-h.drained:
		t.Fatal("drained while a request is still pinned")
	default:
	}
	if h.awaitDrain(time.Millisecond) {
		t.Fatal("awaitDrain reported drained while pinned")
	}
	h.release() // last request finishes
	if !h.awaitDrain(time.Second) {
		t.Fatal("awaitDrain timed out after the last release")
	}
	if h.tryAcquire() {
		t.Fatal("pin on a drained handle succeeded")
	}
}

// TestHistogramQuantiles sanity-checks the base-2 latency digest.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 0; i < 90; i++ {
		h.observe(40 * time.Microsecond) // bucket 0 (≤ 50µs)
	}
	for i := 0; i < 10; i++ {
		h.observe(70 * time.Millisecond)
	}
	s := h.summary()
	if s.P50 != 0.05 {
		t.Fatalf("p50 = %v ms, want 0.05 (first bucket bound)", s.P50)
	}
	if s.P99 < 70 {
		t.Fatalf("p99 = %v ms, want >= 70", s.P99)
	}
	if s.Max != 70 {
		t.Fatalf("max = %v ms, want 70", s.Max)
	}
	if got := h.quantile(0.90); got != 0.05 {
		t.Fatalf("p90 = %v ms, want 0.05", got)
	}
}

// TestAdmissionSemaphore covers the slot accounting outside HTTP.
func TestAdmissionSemaphore(t *testing.T) {
	a := NewTieredAdmission(2, 0, -1)
	ctx := context.Background()
	ra1, ra2 := a.AcquireTier(ctx, false), a.AcquireTier(ctx, false)
	if ra1 == nil || ra2 == nil {
		t.Fatal("free slots rejected")
	}
	if a.AcquireTier(ctx, false) != nil {
		t.Fatal("third acquire succeeded on a 2-slot semaphore with no grace")
	}
	ra1()
	if a.AcquireTier(ctx, false) == nil {
		t.Fatal("freed slot rejected")
	}
	// With a grace, a waiter succeeds once a slot frees.
	b := NewTieredAdmission(1, 0, time.Second)
	rb := b.AcquireTier(ctx, false)
	if rb == nil {
		t.Fatal("first acquire failed")
	}
	done := make(chan bool, 1)
	go func() { done <- b.AcquireTier(ctx, false) != nil }()
	time.Sleep(5 * time.Millisecond)
	rb()
	if !<-done {
		t.Fatal("waiter within grace did not get the freed slot")
	}
}
