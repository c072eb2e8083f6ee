package server

// Serving-resilience tests: idempotent submission, the degraded-
// durability state machine under an injected sick disk, drain's
// explicit-loss contract, journal quarantine, and the stream/cancel/
// drain race (run under -race in verify).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gpapriori"
	"gpapriori/internal/fsfault"
	"gpapriori/internal/jobs"
	"gpapriori/internal/testutil"
)

// postJob submits req with an explicit idempotency key, returning the
// decoded job info and HTTP status.
func postJob(t *testing.T, url string, req gpapriori.ServeMineRequest, key string) (*gpapriori.ServeJobInfo, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if key != "" {
		hreq.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	info := &gpapriori.ServeJobInfo{}
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

// TestIdempotentSubmitDedup: two submits under one key are one job —
// the second returns the original id without enqueueing, visible in
// the /statsz durability and lifecycle counters.
func TestIdempotentSubmitDedup(t *testing.T) {
	_, cl, ts := newTestServer(t, Config{})
	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 20, NoCache: true}

	first, status := postJob(t, ts.URL, req, "key-abc")
	if status/100 != 2 {
		t.Fatalf("first submit: status %d", status)
	}
	second, status := postJob(t, ts.URL, req, "key-abc")
	if status/100 != 2 {
		t.Fatalf("second submit: status %d", status)
	}
	if second.ID != first.ID {
		t.Fatalf("retried submit created job %s, want the original %s", second.ID, first.ID)
	}
	// A different key is a different submission.
	third, _ := postJob(t, ts.URL, req, "key-xyz")
	if third.ID == first.ID {
		t.Fatal("a different idempotency key must enqueue a fresh job")
	}
	for _, id := range []string{first.ID, third.ID} {
		if _, err := cl.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.IdempotentHits != 1 {
		t.Errorf("idempotent_hits = %d, want 1", st.Durability.IdempotentHits)
	}
	if st.Jobs.Submitted != 2 {
		t.Errorf("submitted = %d, want 2 — the deduped retry must not count", st.Jobs.Submitted)
	}
}

// TestIdempotencyKeyTooLong: an oversized key is rejected up front, so
// a hostile client cannot grow the dedup table arbitrarily.
func TestIdempotencyKeyTooLong(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 20}
	_, status := postJob(t, ts.URL, req, strings.Repeat("k", maxIdemKeyLen+1))
	if status != http.StatusBadRequest {
		t.Fatalf("oversized key: status %d, want 400", status)
	}
}

// TestDegradedJobKeepsMining is the sick-disk criterion: with every
// fsync failing, a checkpointing job must still finish done — marked
// degraded in its job info, in /healthz while live, and in the /statsz
// durability counters — and its result must equal the offline one.
func TestDegradedJobKeepsMining(t *testing.T) {
	in := fsfault.NewInjector(1)
	in.SetRates(0, 1, 0) // every fsync fails; writes and renames pass
	restore := fsfault.SetForTest(in)
	defer restore()

	var logbuf syncBuffer
	_, cl, _ := newTestServer(t, Config{
		Registry: slowRegistry(t), StateDir: t.TempDir(), Log: &logbuf,
	})
	ctx := context.Background()
	job, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	// The degraded flag must become visible on a live job — and while it
	// is, /healthz answers "degraded".
	sawLiveDegraded := false
	for {
		info, err := cl.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Terminal() {
			break
		}
		if info.Degraded {
			sawLiveDegraded = true
			st, err := cl.Health(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st != "degraded" {
				// The job may have gone terminal between the two calls;
				// anything else is a real health-reporting bug.
				if post, err := cl.Job(ctx, job.ID); err != nil || !post.Terminal() {
					t.Fatalf("health %q with a live degraded job", st)
				}
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobDone.String() {
		t.Fatalf("degraded job ended %s (%s), want done — a sick disk must not fail mining", final.State, final.Error)
	}
	if !final.Degraded {
		t.Fatal("terminal info must carry the sticky degraded flag")
	}
	if !sawLiveDegraded {
		t.Error("degraded flag never surfaced on the live job")
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.CheckpointErrors == 0 || st.Durability.DegradedJobs != 1 {
		t.Errorf("durability stats: checkpoint_errors=%d degraded_jobs=%d, want >0 and 1",
			st.Durability.CheckpointErrors, st.Durability.DegradedJobs)
	}
	if !strings.Contains(logbuf.String(), "degraded") {
		t.Error("degradation must be reported in the log")
	}

	// Clean-run equivalence holds through degradation: same itemsets as
	// an offline run on a healthy disk.
	got, err := cl.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := slowWant(t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded result differs from offline (%d vs %d sets)", len(got), len(want))
	}
}

// TestDrainJournalFailureIsExplicitLoss: when the drain journal cannot
// be written, Drain still succeeds (the daemon exits 0) — but the loss
// is loud: a log report naming the jobs and durability counters in
// /statsz.
func TestDrainJournalFailureIsExplicitLoss(t *testing.T) {
	in := fsfault.NewInjector(1)
	in.SetRates(0, 0, 1) // every rename fails: checkpoints degrade, the journal is unwritable
	restore := fsfault.SetForTest(in)
	defer restore()

	var logbuf syncBuffer
	s, cl, _ := newTestServer(t, Config{
		Registry: slowRegistry(t), StateDir: t.TempDir(), Log: &logbuf,
	})
	ctx := context.Background()
	job, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain with a dead disk must still succeed, got %v", err)
	}
	log := logbuf.String()
	if !strings.Contains(log, "drain journal failed") || !strings.Contains(log, "loss report") {
		t.Fatalf("log must carry the explicit loss report, got:\n%s", log)
	}
	if !strings.Contains(log, job.ID) {
		t.Errorf("loss report must name the lost job %s", job.ID)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.JournalErrors != 1 || st.Durability.LostJobs != 1 {
		t.Errorf("durability stats: journal_errors=%d lost_jobs=%d, want 1/1",
			st.Durability.JournalErrors, st.Durability.LostJobs)
	}
	// The lost job's terminal event must NOT claim it was requeued —
	// there is no journal for a restart to resume it from.
	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Requeued {
		t.Error("a job lost to a failed journal must not be marked requeued")
	}
}

// TestCorruptJournalQuarantined: a damaged pending.json is moved aside
// to pending.json.corrupt-1, counted, logged — and the daemon boots.
func TestCorruptJournalQuarantined(t *testing.T) {
	stateDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(stateDir, "pending.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logbuf syncBuffer
	_, cl, _ := newTestServer(t, Config{StateDir: stateDir, Log: &logbuf})
	if _, err := os.Stat(filepath.Join(stateDir, "pending.json.corrupt-1")); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "pending.json")); !os.IsNotExist(err) {
		t.Fatal("the corrupt journal must be moved, not copied")
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.JournalsQuarantined != 1 {
		t.Errorf("journals_quarantined = %d, want 1", st.Durability.JournalsQuarantined)
	}
	if !strings.Contains(logbuf.String(), "quarantined") {
		t.Error("quarantine must be reported in the log")
	}
	// The daemon is fully serviceable after the quarantine.
	if _, _, err := cl.Mine(context.Background(), gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 25}); err != nil {
		t.Fatalf("mining after quarantine: %v", err)
	}
}

// TestFilterEvent covers the ?after_gen resume filter, including the
// packed events a replayed or cache-answered job produces.
func TestFilterEvent(t *testing.T) {
	is := func(ns ...int) []gpapriori.Itemset {
		var out []gpapriori.Itemset
		for _, n := range ns {
			items := make([]gpapriori.Item, n)
			for i := range items {
				items[i] = gpapriori.Item(i + 1)
			}
			out = append(out, gpapriori.Itemset{Items: items, Support: 1})
		}
		return out
	}
	cases := []struct {
		name     string
		ev       gpapriori.ServeGenerationEvent
		afterGen int
		keep     bool
		lens     []int
	}{
		{"passthrough", gpapriori.ServeGenerationEvent{Gen: 1, Itemsets: is(1)}, 0, true, []int{1}},
		{"seen generation dropped", gpapriori.ServeGenerationEvent{Gen: 2, Itemsets: is(2)}, 2, false, nil},
		{"later generation kept", gpapriori.ServeGenerationEvent{Gen: 3, Itemsets: is(3)}, 2, true, []int{3}},
		{"packed event split", gpapriori.ServeGenerationEvent{Gen: 4, Itemsets: is(1, 2, 3, 4)}, 2, true, []int{3, 4}},
		{"packed event fully seen", gpapriori.ServeGenerationEvent{Gen: 0, Itemsets: is(1, 2)}, 2, false, nil},
		{"final always kept", gpapriori.ServeGenerationEvent{Final: true, Itemsets: is(1, 3)}, 2, true, []int{3}},
		{"empty final kept", gpapriori.ServeGenerationEvent{Final: true, Itemsets: is(1)}, 5, true, nil},
	}
	for _, c := range cases {
		got, keep := filterEvent(c.ev, c.afterGen)
		if keep != c.keep {
			t.Errorf("%s: keep=%v, want %v", c.name, keep, c.keep)
			continue
		}
		if !keep {
			continue // a dropped event's content is irrelevant
		}
		var lens []int
		for _, s := range got.Itemsets {
			lens = append(lens, len(s.Items))
		}
		if !reflect.DeepEqual(lens, c.lens) {
			t.Errorf("%s: surviving lengths %v, want %v", c.name, lens, c.lens)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for the server log, which
// is written from mining goroutines and read by test assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestConcurrentStreamCancelDrain races a streaming reader against
// Cancel and Drain on one job: the stream must terminate through the
// typed path (a terminal canceled event, never a hang or a decode
// error), and no goroutine may leak.
func TestConcurrentStreamCancelDrain(t *testing.T) {
	check := testutil.LeakCheck(t, 2, 10*time.Second)
	// Built by hand rather than via newTestServer: the goroutine-leak
	// check needs the server torn down before the count, not in
	// t.Cleanup after it.
	func() {
		s, err := New(Config{Registry: slowRegistry(t), Jobs: gpapriori.JobManagerConfig{MemoryBudgetMB: 256}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{BaseURL: ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		job, err := cl.Submit(ctx, slowRequest())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var final *gpapriori.ServeJobInfo
		var streamErr error
		wg.Add(3)
		go func() {
			defer wg.Done()
			final, streamErr = cl.Stream(ctx, job.ID, nil)
		}()
		go func() {
			defer wg.Done()
			time.Sleep(20 * time.Millisecond)
			if _, err := cl.Cancel(ctx, job.ID); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(20 * time.Millisecond)
			drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			if err := s.Drain(drainCtx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
		wg.Wait()
		if streamErr != nil {
			t.Fatalf("stream must end on the terminal event, got %v", streamErr)
		}
		if final.State != gpapriori.JobCanceled.String() {
			t.Fatalf("raced job ended %s, want canceled", final.State)
		}
		if !strings.Contains(final.Error, jobs.ErrCanceled.Error()) {
			t.Errorf("terminal error %q must carry the typed cancellation", final.Error)
		}
	}()
	// Every server, finalizer, and handler goroutine must unwind.
	check()
}
