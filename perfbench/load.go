package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// newClient returns an HTTP client holding at most conns connections to
// each server, so the load process never opens more than it drives.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends body to url+path and returns the status, header and body.
func post(ctx context.Context, c *http.Client, url, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// span is one timed interval the benchmark records around a call of its
// own. Spans of one request share req; parent links a span to the span
// whose work caused it (0 = root).
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its id.
func (t *tracer) record(name string, req, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, req, parent int64, fn func()) int64 {
	start := time.Now()
	fn()
	return t.record(name, req, parent, start, time.Now())
}

// readResult is the outcome of a closed-loop read window.
type readResult struct {
	lats      []float64       // ms, successful queries
	done      []time.Duration // completion of each lats entry, since start
	attempted int
	failed    int
	elapsed   time.Duration
	errs      []string
	sampled   []sampledReply
}

// sampledReply keeps a request and its served body for a later
// byte-identity check.
type sampledReply struct {
	i    int // position in the request stream
	req  *request
	body []byte
}

// closedLoop drives clients back-to-back clients against url until the
// window closes: each sends its next request only after the previous
// answer arrived and was validated. Requests come from next in a fixed
// order; every sampleEvery-th one keeps its body (0 disables).
func closedLoop(c *http.Client, url string, clients int, window time.Duration, next func(i int) *request, sampleEvery int, tr *tracer) readResult {
	var (
		mu  sync.Mutex
		res readResult
		seq int
		wg  sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(window)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				i := seq
				seq++
				r := next(i)
				mu.Unlock()
				t0 := time.Now()
				status, _, body, err := post(context.Background(), c, url, r.path, r.body)
				t1 := time.Now()
				tr.record("window", int64(i+1), 0, t0, t1)
				if err == nil {
					_, err = validate(r, status, body)
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err.Error())
					}
				} else {
					res.lats = append(res.lats, float64(t1.Sub(t0))/1e6)
					res.done = append(res.done, t1.Sub(start))
					if sampleEvery > 0 && i%sampleEvery == 0 {
						res.sampled = append(res.sampled, sampledReply{i, r, body})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// updateBatch is one scheduled /v1/admin/update request.
type updateBatch struct {
	body  []byte
	sched time.Time // when it was due
	sent  time.Time
	acked time.Time
	gen   uint64
	err   error
}

type updateAck struct {
	Generation uint64 `json:"generation"`
	Applied    int    `json:"applied"`
}

// openLoopWrites sends batches on one connection at start + k·interval.
// A batch that cannot go on time (the previous one has not been
// acknowledged) goes as soon as it can; its latency still counts from
// the time it was due.
func openLoopWrites(c *http.Client, url string, start time.Time, interval time.Duration, bodies [][]byte, tr *tracer) []*updateBatch {
	out := make([]*updateBatch, len(bodies))
	for k, body := range bodies {
		b := &updateBatch{body: body, sched: start.Add(time.Duration(k) * interval)}
		out[k] = b
		if d := time.Until(b.sched); d > 0 {
			time.Sleep(d)
		}
		b.sent = time.Now()
		status, _, resp, err := post(context.Background(), c, url, "/v1/admin/update", body)
		b.acked = time.Now()
		tr.record("window", int64(k+1), 0, b.sent, b.acked)
		switch {
		case err != nil:
			b.err = err
		case status != http.StatusOK:
			b.err = fmt.Errorf("update %d: status %d: %.200s", k, status, resp)
		default:
			var ack updateAck
			if err := json.Unmarshal(resp, &ack); err != nil {
				b.err = fmt.Errorf("update %d: %w", k, err)
			} else if ack.Applied < 1 {
				b.err = fmt.Errorf("update %d: applied %d arcs", k, ack.Applied)
			}
			b.gen = ack.Generation
		}
	}
	return out
}

// lateness summarises how late the generator sent batches, in ms.
func lateness(bs []*updateBatch) (meanMs, maxMs float64) {
	var xs []float64
	for _, b := range bs {
		xs = append(xs, float64(b.sent.Sub(b.sched))/1e6)
	}
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	return mean(xs), s[len(s)-1]
}

// push is one SSE event received on a subscription.
type push struct {
	event string
	gen   uint64
	at    time.Time
	data  []byte
}

// subscription reads one SSE stream in the background.
type subscription struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	pushes []push
	err    error
	notify chan struct{} // signalled (non-blocking) on every event
}

// subscribe opens the stream and returns once the snapshot event has
// arrived.
func subscribe(url, query string) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/subscribe?"+query, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := newClient(1).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d: %.200s", resp.StatusCode, body)
	}
	s := &subscription{cancel: cancel, done: make(chan struct{}), notify: make(chan struct{}, 1)}
	br := bufio.NewReader(resp.Body)
	first, err := readSSEFrame(br)
	if err != nil || first.event != "snapshot" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: no snapshot (%v)", err)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		for {
			f, err := readSSEFrame(br)
			if err != nil {
				if ctx.Err() == nil {
					s.setErr(fmt.Errorf("subscription stream ended: %w", err))
				}
				return
			}
			if f.event != "update" {
				s.setErr(fmt.Errorf("subscription: %s event: %.200s", f.event, f.data))
				return
			}
			s.mu.Lock()
			s.pushes = append(s.pushes, push{f.event, f.id, time.Now(), f.data})
			s.mu.Unlock()
			select {
			case s.notify <- struct{}{}:
			default:
			}
		}
	}()
	return s, nil
}

func (s *subscription) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// waitGen waits until a push of generation ≥ gen arrived, the stream
// failed, or the timeout passed.
func (s *subscription) waitGen(gen uint64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		ok := len(s.pushes) > 0 && s.pushes[len(s.pushes)-1].gen >= gen
		s.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-s.notify:
		case <-s.done:
			return false
		case <-deadline:
			return false
		}
	}
}

// close ends the stream and waits for the reader to exit.
func (s *subscription) close() {
	s.cancel()
	<-s.done
}

// pushLags pairs every acknowledged batch with the push carrying its
// generation and returns those lags in ms, plus the number of batch
// generations that never got a push of their own (folded into a later
// one).
func pushLags(bs []*updateBatch, pushes []push) (lags []float64, coalesced int) {
	at := map[uint64]time.Time{}
	for _, p := range pushes {
		at[p.gen] = p.at
	}
	for _, b := range bs {
		if b.err != nil {
			continue
		}
		if t, ok := at[b.gen]; ok {
			lags = append(lags, float64(t.Sub(b.sched))/1e6)
		} else {
			coalesced++
		}
	}
	sort.Float64s(lags)
	return lags, coalesced
}
