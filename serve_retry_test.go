package gpapriori

// Client-side resilience tests: the retry schedule, idempotency-key
// stability, stream resumption, and post-restart job recovery — all
// against scripted in-process HTTP servers, with the backoff sleep
// seam replaced so schedules run instantly and deterministically.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// newRetryClient builds a client over ts with policy p, capturing every
// backoff delay instead of sleeping it.
func newRetryClient(t *testing.T, ts *httptest.Server, p RetryPolicy) (*ServeClient, *[]time.Duration) {
	t.Helper()
	cl, err := NewServeClient(ServeConfig{BaseURL: ts.URL, Retry: p})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delays := &[]time.Duration{}
	cl.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*delays = append(*delays, d)
		mu.Unlock()
		return nil
	}
	return cl, delays
}

// flakyHandler fails the first n requests with status, then delegates.
func flakyHandler(n int, status int, next http.HandlerFunc) http.HandlerFunc {
	var mu sync.Mutex
	return func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := n > 0
		if fail {
			n--
		}
		mu.Unlock()
		if fail {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"code":"transient","error":"injected"}`)
			return
		}
		next(w, r)
	}
}

func healthOK(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte(`{"status":"ok"}`))
}

// TestRetrySurvivesTransientFailures: a request that fails twice with
// 503 succeeds on the third attempt, sleeping the backoff in between.
func TestRetrySurvivesTransientFailures(t *testing.T) {
	ts := httptest.NewServer(flakyHandler(2, http.StatusServiceUnavailable, healthOK))
	defer ts.Close()
	cl, delays := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 4, Seed: 1})
	st, err := cl.Health(context.Background())
	if err != nil || st != "ok" {
		t.Fatalf("health: %q, %v", st, err)
	}
	if len(*delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(*delays))
	}
}

// TestRetryScheduleDeterministic: equal seeds give byte-equal backoff
// schedules; a different seed gives a different one.
func TestRetryScheduleDeterministic(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		ts := httptest.NewServer(flakyHandler(5, http.StatusServiceUnavailable, healthOK))
		defer ts.Close()
		cl, delays := newRetryClient(t, ts, RetryPolicy{
			MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, Jitter: 0.5, Seed: seed,
		})
		if _, err := cl.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
		return *delays
	}
	a, b := schedule(42), schedule(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	c := schedule(43)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced the identical jittered schedule %v", a)
	}
	// Without jitter the schedule is the pure exponential ramp.
	ts := httptest.NewServer(flakyHandler(3, http.StatusServiceUnavailable, healthOK))
	defer ts.Close()
	cl, delays := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond})
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if !reflect.DeepEqual(*delays, want) {
		t.Fatalf("unjittered schedule %v, want %v", *delays, want)
	}
}

// TestRetryHonorsRetryAfter: a 503 carrying Retry-After sleeps at least
// that long, overriding the shorter computed backoff.
func TestRetryHonorsRetryAfter(t *testing.T) {
	first := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"code":"draining","error":"busy"}`)
			return
		}
		healthOK(w, r)
	}))
	defer ts.Close()
	cl, delays := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond})
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(*delays) != 1 || (*delays)[0] != 3*time.Second {
		t.Fatalf("delays %v, want the server-directed 3s", *delays)
	}
}

// TestRetryDoesNotTouchFatalErrors: typed 4xx answers are final — no
// sleeps, no extra attempts, error surfaced as-is.
func TestRetryDoesNotTouchFatalErrors(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"code":"bad_request","error":"nope"}`)
	}))
	defer ts.Close()
	cl, delays := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 5, Seed: 9})
	_, err := cl.Health(context.Background())
	var se *ServeError
	if !errors.As(err, &se) || se.Code != "bad_request" {
		t.Fatalf("got %v, want the typed bad_request", err)
	}
	if calls != 1 || len(*delays) != 0 {
		t.Fatalf("%d calls, %d sleeps — a 400 must not be retried", calls, len(*delays))
	}
}

// TestSubmitIdempotencyKeyStableAcrossRetries: every attempt of one
// Submit carries the same Idempotency-Key; a second Submit draws a
// fresh one.
func TestSubmitIdempotencyKeyStableAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	fails := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		fail := fails > 0
		if fail {
			fails--
		}
		mu.Unlock()
		if fail {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"code":"draining","error":"restarting"}`)
			return
		}
		json.NewEncoder(w).Encode(ServeJobInfo{ID: "job-1", State: "queued"})
	}))
	defer ts.Close()
	cl, _ := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 5, Seed: 7})
	if _, err := cl.Submit(context.Background(), ServeMineRequest{Dataset: "q", MinSupport: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(context.Background(), ServeMineRequest{Dataset: "q", MinSupport: 5}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("saw %d submit attempts, want 4", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("retried attempts must reuse one key, got %q %q %q", keys[0], keys[1], keys[2])
	}
	if keys[3] == keys[0] {
		t.Fatal("a second Submit must draw a fresh idempotency key")
	}
}

// TestWaitRecoversUnknownJob is the post-restart story: the daemon
// forgot job-1, Wait resubmits under the original idempotency key and
// finishes on the replacement job.
func TestWaitRecoversUnknownJob(t *testing.T) {
	var mu sync.Mutex
	var submitKeys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			mu.Lock()
			submitKeys = append(submitKeys, r.Header.Get("Idempotency-Key"))
			n := len(submitKeys)
			mu.Unlock()
			json.NewEncoder(w).Encode(ServeJobInfo{ID: fmt.Sprintf("job-%d", n), State: "queued"})
		case r.URL.Path == "/v1/jobs/job-1":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"code":"unknown_job","error":"no job"}`)
		case r.URL.Path == "/v1/jobs/job-2":
			json.NewEncoder(w).Encode(ServeJobInfo{ID: "job-2", State: "done", Itemsets: 3})
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"code":"unknown_job","error":"no job"}`)
		}
	}))
	defer ts.Close()
	cl, _ := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 3, Seed: 3})
	job, err := cl.Submit(context.Background(), ServeMineRequest{Dataset: "q", MinSupport: 5})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.ID != "job-2" || final.State != "done" {
		t.Fatalf("recovered wait ended on %s/%s, want job-2/done", final.ID, final.State)
	}
	if len(submitKeys) != 2 || submitKeys[0] != submitKeys[1] {
		t.Fatalf("resubmission must reuse the original idempotency key: %v", submitKeys)
	}
}

// TestWaitPacesDrainAnswers: a draining daemon answers a long-poll at
// once, first with the job still live and then requeued for its
// restart. Wait paces those polls with the backoff instead of spinning,
// follows the requeue, and returns the restarted daemon's answer.
func TestWaitPacesDrainAnswers(t *testing.T) {
	var mu sync.Mutex
	answers := []ServeJobInfo{
		{ID: "job-1", State: "running"},
		{ID: "job-1", State: "canceled", Requeued: true},
		{ID: "job-1", State: "done", Itemsets: 3},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		a := answers[0]
		if len(answers) > 1 {
			answers = answers[1:]
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(a)
	}))
	defer ts.Close()
	cl, delays := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 3, Seed: 3})
	final, err := cl.Wait(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Requeued {
		t.Fatalf("Wait ended %s (requeued=%v), want the restarted daemon's done", final.State, final.Requeued)
	}
	if len(*delays) != 2 {
		t.Fatalf("slept %d times, want once after each of the 2 early answers", len(*delays))
	}
}

// streamScript serves a scripted NDJSON stream per connection.
type streamScript struct {
	mu    sync.Mutex
	conns []func(w http.ResponseWriter, r *http.Request)
	gets  []string // after_gen query of each stream connection, in order
}

func (s *streamScript) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.gets = append(s.gets, r.URL.Query().Get("after_gen"))
	var h func(http.ResponseWriter, *http.Request)
	if len(s.conns) > 0 {
		h = s.conns[0]
		s.conns = s.conns[1:]
	}
	s.mu.Unlock()
	if h == nil {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"code":"unknown_job","error":"no job"}`)
		return
	}
	h(w, r)
}

// TestStreamReconnectResumes: the first connection delivers generation
// 1 and dies mid-stream; the reconnect must ask for after_gen=1 and the
// client must end with no duplicate itemsets.
func TestStreamReconnectResumes(t *testing.T) {
	gen1 := ServeGenerationEvent{Gen: 1, Itemsets: []Itemset{{Items: []Item{1}, Support: 9}}}
	gen2 := ServeGenerationEvent{Gen: 2, Itemsets: []Itemset{{Items: []Item{1, 2}, Support: 4}}}
	final := ServeGenerationEvent{Final: true, Job: &ServeJobInfo{ID: "job-1", State: "done", Itemsets: 2}}
	script := &streamScript{conns: []func(http.ResponseWriter, *http.Request){
		func(w http.ResponseWriter, r *http.Request) {
			enc := json.NewEncoder(w)
			enc.Encode(gen1)
			w.(http.Flusher).Flush()
			// Die without a final event: the client sees a truncated
			// stream (a retryable failure), not a finished one.
			panic(http.ErrAbortHandler)
		},
		func(w http.ResponseWriter, r *http.Request) {
			enc := json.NewEncoder(w)
			enc.Encode(gen2)
			enc.Encode(final)
		},
	}}
	ts := httptest.NewServer(script)
	defer ts.Close()
	cl, _ := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 3, Seed: 11})
	var got []Itemset
	fin, err := cl.Stream(context.Background(), "job-1", func(ev ServeGenerationEvent) error {
		got = append(got, ev.Itemsets...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("final state %q", fin.State)
	}
	want := append(append([]Itemset{}, gen1.Itemsets...), gen2.Itemsets...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %v, want %v (no duplicates, nothing lost)", got, want)
	}
	if !reflect.DeepEqual(script.gets, []string{"", "1"}) {
		t.Fatalf("after_gen per connection: %v, want [\"\" \"1\"]", script.gets)
	}
}

// TestStreamLostIsTyped: a stream that cannot be re-established within
// the budget reports ErrStreamLost, matchable with errors.Is.
func TestStreamLostIsTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer ts.Close()
	cl, delays := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 3, Seed: 5})
	_, err := cl.Stream(context.Background(), "job-1", nil)
	if !errors.Is(err, ErrStreamLost) {
		t.Fatalf("got %v, want ErrStreamLost", err)
	}
	if len(*delays) != 2 {
		t.Fatalf("slept %d times before giving up, want 2", len(*delays))
	}
}

// TestStreamCallbackErrorIsFinal: an error from the caller's callback
// aborts the stream unwrapped and unretried.
func TestStreamCallbackErrorIsFinal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ServeGenerationEvent{Gen: 1})
		json.NewEncoder(w).Encode(ServeGenerationEvent{Final: true, Job: &ServeJobInfo{State: "done"}})
	}))
	defer ts.Close()
	cl, delays := newRetryClient(t, ts, RetryPolicy{MaxAttempts: 5, Seed: 2})
	boom := errors.New("consumer says no")
	_, err := cl.Stream(context.Background(), "job-1", func(ev ServeGenerationEvent) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the callback's own error", err)
	}
	if len(*delays) != 0 {
		t.Fatal("a callback error must not be retried")
	}
}

// TestZeroPolicyFailsFast: the zero RetryPolicy preserves the old
// single-attempt behavior exactly.
func TestZeroPolicyFailsFast(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"code":"draining","error":"later"}`)
	}))
	defer ts.Close()
	cl, err := NewServeClient(ServeConfig{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Health(context.Background()); err == nil {
		t.Fatal("want the 503 surfaced")
	}
	if calls != 1 {
		t.Fatalf("%d attempts without a policy, want 1", calls)
	}
}
