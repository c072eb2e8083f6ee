package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpapriori"
)

// stallingStreamWriter simulates a subscriber that never drains its
// connection: once the handler arms a write deadline, every write
// reports os.ErrDeadlineExceeded — exactly what net/http surfaces when
// a blocked socket write outlives SetWriteDeadline. Driving the stream
// handler through it makes eviction deterministic instead of depending
// on kernel socket buffer sizes.
type stallingStreamWriter struct {
	mu       sync.Mutex
	header   http.Header
	status   int
	deadline time.Time
	writes   int
}

func (w *stallingStreamWriter) Header() http.Header {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *stallingStreamWriter) WriteHeader(code int) {
	w.mu.Lock()
	w.status = code
	w.mu.Unlock()
}

func (w *stallingStreamWriter) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	w.deadline = t
	w.mu.Unlock()
	return nil
}

func (w *stallingStreamWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if !w.deadline.IsZero() {
		return 0, os.ErrDeadlineExceeded
	}
	return len(p), nil
}

// deadlineStreamWriter is a subscriber that absorbs every write at
// once but, like a socket under SetWriteDeadline, fails a write that
// starts after the armed deadline has passed.
type deadlineStreamWriter struct {
	header   http.Header
	deadline time.Time
	late     int
	body     bytes.Buffer
}

func (w *deadlineStreamWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *deadlineStreamWriter) WriteHeader(int) {}

func (w *deadlineStreamWriter) SetWriteDeadline(t time.Time) error {
	w.deadline = t
	return nil
}

func (w *deadlineStreamWriter) Write(p []byte) (int, error) {
	if !w.deadline.IsZero() && time.Now().After(w.deadline) {
		w.late++
		return 0, os.ErrDeadlineExceeded
	}
	return w.body.Write(p)
}

// TestStreamWriteDeadlineExcludesMarshalling: a stream write's deadline
// covers the subscriber's write, not the server's marshalling of the
// event before it. The timeout is a quarter of the time the event takes
// to marshal, so a deadline armed before marshalling has always passed
// when the write starts, and one armed after it leaves the whole
// timeout to a write the subscriber absorbs at once.
func TestStreamWriteDeadlineExcludesMarshalling(t *testing.T) {
	big := gpapriori.ServeGenerationEvent{Gen: 4, Itemsets: make([]gpapriori.Itemset, 200_000)}
	for i := range big.Itemsets {
		big.Itemsets[i] = gpapriori.Itemset{Items: []gpapriori.Item{1, 2, 3, gpapriori.Item(4 + i)}, Support: 10 + i}
	}
	marshal := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := json.Marshal(big); err != nil {
			t.Fatal(err)
		}
		marshal = min(marshal, time.Since(t0))
	}
	s, _, _ := newTestServer(t, Config{Overload: OverloadConfig{StreamWriteTimeout: marshal / 4}})
	rec := &jobRecord{id: "job-big", terminal: true, wake: make(chan struct{}),
		events: []gpapriori.ServeGenerationEvent{big, {Final: true}}}
	s.mu.Lock()
	s.registerLocked(rec)
	s.mu.Unlock()

	w := &deadlineStreamWriter{}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-big/stream", nil))
	if w.late != 0 {
		t.Fatalf("%d writes started past a %v deadline; marshalling one event takes %v", w.late, marshal/4, marshal)
	}
	dec := json.NewDecoder(&w.body)
	var got []gpapriori.ServeGenerationEvent
	for dec.More() {
		var ev gpapriori.ServeGenerationEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != 2 || len(got[0].Itemsets) != len(big.Itemsets) || !got[1].Final {
		t.Fatalf("streamed %d events, want the %d-itemset generation and the final event", len(got), len(big.Itemsets))
	}
}

// TestSlowStreamSubscriberEvicted: a subscriber that cannot absorb a
// single batch within StreamWriteTimeout is evicted, while concurrent
// healthy subscribers on the same job stream every event to completion
// and the mining job itself is untouched. Run under -race this also
// exercises the eviction bookkeeping against live stream traffic. The
// timeout keeps its default: the stalled subscriber fails at its first
// deadline-armed write whatever the timeout, while a healthy one under
// -race takes longer than 100 ms to decode one of the slow job's larger
// generations (tens of thousands of itemsets, megabytes of JSON).
func TestSlowStreamSubscriberEvicted(t *testing.T) {
	s, cl, _ := newTestServer(t, Config{Registry: slowRegistry(t)})
	ctx := context.Background()

	info, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	events := make([][]gpapriori.ServeGenerationEvent, 2)
	errs := make([]error, 2)
	for k := range events {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = cl.Stream(ctx, info.ID, func(ev gpapriori.ServeGenerationEvent) error {
				events[k] = append(events[k], ev)
				return nil
			})
		}(k)
	}

	// The stalled subscriber rides the same handler the healthy ones
	// do; its first deadline-armed write fails and must end the stream.
	sw := &stallingStreamWriter{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+info.ID+"/stream", nil)
		s.Handler().ServeHTTP(sw, req)
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("streams did not settle: evicted subscriber may be wedged")
	}

	for k, err := range errs {
		if err != nil {
			t.Fatalf("healthy subscriber %d: %v", k, err)
		}
		if n := len(events[k]); n == 0 || !events[k][n-1].Final {
			t.Fatalf("healthy subscriber %d: %d events, want a final event", k, n)
		}
	}
	if len(events[0]) != len(events[1]) {
		t.Fatalf("healthy subscribers diverged: %d vs %d events", len(events[0]), len(events[1]))
	}

	final, err := cl.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("job state %q, want done — eviction must not touch the job", final.State)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Overload.StreamEvictions < 1 {
		t.Fatalf("stream_evictions %d, want >= 1", st.Overload.StreamEvictions)
	}
}

// TestOversizedBodyTypedRejection: a request body past MaxBodyBytes is
// refused with the typed 413 "body_too_large" (no Retry-After — growth
// is not transient), the rejection is counted in /statsz, and
// reasonably sized submissions keep working.
func TestOversizedBodyTypedRejection(t *testing.T) {
	_, cl, ts := newTestServer(t, Config{
		Overload: OverloadConfig{MaxBodyBytes: 4 << 10},
	})
	ctx := context.Background()

	huge := `{"dataset":"` + strings.Repeat("a", 8<<10) + `","min_support":5}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Code string `json:"code"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || body.Code != "body_too_large" {
		t.Fatalf("got %d/%s, want 413/body_too_large", resp.StatusCode, body.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("413 carries Retry-After %q; an oversized body is not transient", ra)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Overload.BodyLimitRejections != 1 {
		t.Fatalf("body_limit_rejections %d, want 1", st.Overload.BodyLimitRejections)
	}

	if _, err := cl.Submit(ctx, gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 5}); err != nil {
		t.Fatalf("normal-size submit after a 413: %v", err)
	}
}

// TestLongPollReleasedByDrain: a wait_sec long-poll parked on a
// non-terminal job returns immediately when Drain begins, instead of
// holding shutdown hostage for the rest of its window.
func TestLongPollReleasedByDrain(t *testing.T) {
	s, cl, ts := newTestServer(t, Config{
		Registry: slowRegistry(t),
		Jobs:     gpapriori.JobManagerConfig{Workers: 1, MemoryBudgetMB: 256},
	})
	ctx := context.Background()

	// One worker: the blocker runs, the second submission sits queued
	// with no state change to wake a poller.
	if _, err := cl.Submit(ctx, slowRequest()); err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}

	type pollResult struct {
		status  int
		elapsed time.Duration
		err     error
	}
	ch := make(chan pollResult, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "?wait_sec=60")
		r := pollResult{elapsed: time.Since(start), err: err}
		if err == nil {
			r.status = resp.StatusCode
			resp.Body.Close()
		}
		ch <- r
	}()

	// Let the poll park, then drain. Drain is idempotent, so the test
	// cleanup's second call is harmless.
	time.Sleep(200 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	var r pollResult
	select {
	case r = <-ch:
	case <-time.After(20 * time.Second):
		t.Fatal("long-poll still parked after Drain")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("released poll status %d, want 200", r.status)
	}
	if r.elapsed > 10*time.Second {
		t.Fatalf("poll held %v before release; drain must cut the wait_sec window short", r.elapsed)
	}
}

// TestRefusalsCarryRetryAfter: a genuinely full daemon answers 429 with
// a Retry-After header derived from its drain rate, and the client
// decodes it into ServeError.RetryAfter — the pacing loop is closed end
// to end, not just on the wire.
func TestRefusalsCarryRetryAfter(t *testing.T) {
	_, cl, ts := newTestServer(t, Config{
		Registry: slowRegistry(t),
		Jobs:     gpapriori.JobManagerConfig{Workers: 1, QueueLimit: 1, MemoryBudgetMB: 256},
	})
	ctx := context.Background()

	// Fill the daemon: one running, one queued. The next submission is
	// refused.
	for i := 0; i < 2; i++ {
		if _, err := cl.Submit(ctx, slowRequest()); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := json.Marshal(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full daemon answered %d, want 429", resp.StatusCode)
	}
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || sec < 1 {
		t.Fatalf("Retry-After %q on 429, want a whole number of seconds >= 1",
			resp.Header.Get("Retry-After"))
	}

	// The fail-fast client surfaces the decoded hint on the typed error.
	_, err = cl.Submit(ctx, slowRequest())
	se, ok := err.(*gpapriori.ServeError)
	if !ok {
		t.Fatalf("want *ServeError, got %v", err)
	}
	if se.Status != http.StatusTooManyRequests || se.Code != "queue_full" {
		t.Fatalf("got %d/%s, want 429/queue_full", se.Status, se.Code)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("decoded RetryAfter %v, want >= 1s", se.RetryAfter)
	}
}
