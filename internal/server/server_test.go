package server

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	"gpapriori/internal/dataset"
	"gpapriori/internal/jobs"
	"gpapriori/internal/oracle"
	"gpapriori/internal/testutil"
)

// testDB is a small deterministic database shared by the fast tests.
func testDB(t *testing.T) *gpapriori.Database {
	t.Helper()
	return gpapriori.GenerateQuest(60, 400, 8, 4, 7)
}

// newTestServer boots a Server over httptest with one dataset "q".
func newTestServer(t *testing.T, cfg Config) (*Server, *gpapriori.ServeClient, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		reg := NewRegistry()
		if _, err := reg.Add("q", "test", testDB(t)); err != nil {
			t.Fatal(err)
		}
		cfg.Registry = reg
	}
	if cfg.Jobs.MemoryBudgetMB == 0 {
		cfg.Jobs.MemoryBudgetMB = 256
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{BaseURL: ts.URL, PollWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return s, cl, ts
}

// TestServedEquivalence is the end-to-end serving criterion: the result
// the pipeline streams per generation over HTTP, and the result
// endpoint's body, must equal the brute-force oracle's itemsets.
func TestServedEquivalence(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{CacheBudgetBytes: 1 << 20})
	db := testDB(t)
	rows := make([][]gpapriori.Item, db.Len())
	for i := range rows {
		rows[i] = db.Transaction(i)
	}
	exact := dataset.New(rows)
	ctx := context.Background()
	cases := []gpapriori.ServeMineRequest{
		{Dataset: "q", RelativeSupport: 0.05, NoCache: true},
		{Dataset: "q", MinSupport: 20, NoCache: true},
		{Dataset: "q", MinSupport: 12, MaxLen: 2, NoCache: true},
	}
	for _, req := range cases {
		res, info, err := cl.Mine(ctx, req)
		if err != nil {
			t.Fatalf("%+v: served mine: %v", req, err)
		}
		minSup := req.MinSupport
		if minSup == 0 {
			minSup = db.AbsoluteSupport(req.RelativeSupport)
		}
		if info.MinSupport != minSup {
			t.Errorf("%+v: served min support %d, want %d", req, info.MinSupport, minSup)
		}
		rs := oracle.Mine(exact, minSup)
		rs.Sort()
		var want []gpapriori.Itemset
		for _, s := range rs.Sets {
			if req.MaxLen == 0 || len(s.Items) <= req.MaxLen {
				want = append(want, s)
			}
		}
		if !reflect.DeepEqual(res.Itemsets, want) {
			t.Fatalf("%+v: served itemsets differ from the oracle's (%d vs %d sets)",
				req, len(res.Itemsets), len(want))
		}
		// The result endpoint must serve the identical canonical bytes.
		got, err := cl.Result(ctx, info.ID)
		if err != nil {
			t.Fatalf("%+v: result endpoint: %v", req, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: result endpoint differs from the oracle", req)
		}
	}
}

// TestEveryAlgorithmNameMinesWithPipeline: the daemon mines every
// request with the pipeline, whichever engine it names. For each name
// in gpapriori.Algorithms(), on a single node and through a cluster
// non-owner, the submit, the status, the final stream event and the
// cache hit of a repeat all report the pipeline, and the result equals
// the offline pipeline's. An unknown name is still a typed 400.
func TestEveryAlgorithmNameMinesWithPipeline(t *testing.T) {
	_, single, _ := newTestServer(t, Config{CacheBudgetBytes: 1 << 20})
	tc := newTestCluster(t, 3, 1, nil)
	_, nonOwner := tc.roles(t, "q")
	db := testDB(t)
	ctx := context.Background()
	pipeline := string(gpapriori.AlgoPipeline)
	for _, node := range []struct {
		name string
		cl   *gpapriori.ServeClient
	}{{"single node", single}, {"cluster non-owner", tc.clients[nonOwner]}} {
		for i, algo := range gpapriori.Algorithms() {
			// A support of its own per name, so each first request mines.
			req := gpapriori.ServeMineRequest{Dataset: "q", Algorithm: string(algo), MinSupport: 14 + i}
			where := fmt.Sprintf("%s, %q", node.name, algo)
			job, err := node.cl.Submit(ctx, req)
			if err != nil {
				t.Fatalf("%s: submit: %v", where, err)
			}
			status, err := node.cl.Job(ctx, job.ID)
			if err != nil {
				t.Fatalf("%s: status: %v", where, err)
			}
			var last gpapriori.ServeGenerationEvent
			final, err := node.cl.Stream(ctx, job.ID, func(ev gpapriori.ServeGenerationEvent) error {
				last = ev
				return nil
			})
			if err != nil {
				t.Fatalf("%s: stream: %v", where, err)
			}
			repeat, err := node.cl.Submit(ctx, req)
			if err != nil {
				t.Fatalf("%s: repeat: %v", where, err)
			}
			if !repeat.Terminal() {
				if repeat, err = node.cl.Wait(ctx, repeat.ID); err != nil {
					t.Fatalf("%s: repeat: %v", where, err)
				}
			}
			if !last.Final || last.Job == nil || final.State != gpapriori.JobDone.String() || !repeat.Cached {
				t.Fatalf("%s: final event %+v, state %s, repeat cached %v; want a done job and a cache hit",
					where, last, final.State, repeat.Cached)
			}
			for _, info := range []struct {
				what string
				algo string
			}{{"submit", job.Algorithm}, {"status", status.Algorithm}, {"final event", last.Job.Algorithm}, {"cache hit", repeat.Algorithm}} {
				if info.algo != pipeline {
					t.Errorf("%s: %s reports %q, want %q", where, info.what, info.algo, pipeline)
				}
			}
			got, err := node.cl.Result(ctx, repeat.ID)
			if err != nil {
				t.Fatalf("%s: result: %v", where, err)
			}
			want, err := gpapriori.Mine(db, req.MiningConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want.Itemsets) {
				t.Fatalf("%s: served %d itemsets, the offline pipeline %d", where, len(got), len(want.Itemsets))
			}
		}
		_, err := node.cl.Submit(ctx, gpapriori.ServeMineRequest{Dataset: "q", Algorithm: "quantum", MinSupport: 14})
		if se, ok := err.(*gpapriori.ServeError); !ok || se.Status != http.StatusBadRequest || se.Code != "bad_request" {
			t.Fatalf("%s: unknown algorithm: got %v, want 400 bad_request", node.name, err)
		}
	}
}

// TestCacheHitServed: a second identical request is answered from the
// result cache — visible in /statsz — with the same itemsets and no
// second mining job.
func TestCacheHitServed(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{CacheBudgetBytes: 4 << 20})
	ctx := context.Background()
	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 25}

	first, firstInfo, err := cl.Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if firstInfo.Cached {
		t.Fatal("first request must mine, not hit the cache")
	}
	second, secondInfo, err := cl.Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !secondInfo.Cached {
		t.Fatal("second identical request must be served from the cache")
	}
	if !reflect.DeepEqual(first.Itemsets, second.Itemsets) {
		t.Fatal("cached answer differs from the mined one")
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Puts != 1 {
		t.Errorf("cache stats: hits=%d puts=%d, want 1/1", st.Cache.Hits, st.Cache.Puts)
	}
	if st.Jobs.Submitted != 2 || st.Jobs.Done != 2 {
		t.Errorf("job counters: submitted=%d done=%d, want 2/2 (cached job counted)",
			st.Jobs.Submitted, st.Jobs.Done)
	}
	// The mined job's memory reservation was returned before its final
	// event was published.
	if st.InFlightBytes != 0 {
		t.Errorf("reservations leaked: %d bytes in flight after every job finished", st.InFlightBytes)
	}
	// A different threshold is a different fingerprint: must miss.
	_, thirdInfo, err := cl.Mine(ctx, gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 30})
	if err != nil {
		t.Fatal(err)
	}
	if thirdInfo.Cached {
		t.Error("different min_support must not hit the cache")
	}
}

// TestSubmitRejections: malformed and out-of-range requests come back
// as typed 4xx errors, never as admitted jobs.
func TestSubmitRejections(t *testing.T) {
	_, cl, ts := newTestServer(t, Config{})
	ctx := context.Background()

	cases := []struct {
		req    gpapriori.ServeMineRequest
		status int
		code   string
	}{
		{gpapriori.ServeMineRequest{Dataset: "nope", MinSupport: 5}, http.StatusNotFound, "unknown_dataset"},
		{gpapriori.ServeMineRequest{Dataset: "q"}, http.StatusBadRequest, "bad_request"},
		{gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 5, RelativeSupport: 0.5}, http.StatusBadRequest, "bad_request"},
		{gpapriori.ServeMineRequest{Dataset: "q", Algorithm: "quantum", MinSupport: 5}, http.StatusBadRequest, "bad_request"},
		{gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 5, DeadlineSec: -1}, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		_, err := cl.Submit(ctx, c.req)
		se, ok := err.(*gpapriori.ServeError)
		if !ok {
			t.Fatalf("%+v: want *ServeError, got %v", c.req, err)
		}
		if se.Status != c.status || se.Code != c.code {
			t.Errorf("%+v: got %d/%s, want %d/%s", c.req, se.Status, se.Code, c.status, c.code)
		}
	}

	// Raw malformed JSON straight at the endpoint.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}

	// Unknown job IDs are typed 404s on every job endpoint.
	if _, err := cl.Job(ctx, "job-999"); err == nil {
		t.Error("unknown job: want error")
	} else if se, ok := err.(*gpapriori.ServeError); !ok || se.Code != "unknown_job" {
		t.Errorf("unknown job: got %v, want unknown_job", err)
	}
}

// TestFinishedJobsBounded: a long-lived daemon keeps at most
// maxFinishedJobs finished records. The oldest finished record goes
// first, with its idempotency entry, and its id then answers the typed
// 404; a live record is never dropped, however old.
func TestFinishedJobsBounded(t *testing.T) {
	s, cl, _ := newTestServer(t, Config{CacheBudgetBytes: 1 << 20})
	ctx := context.Background()
	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 25}

	// The oldest record of all stays live for the whole test.
	live := &jobRecord{id: "live", dataset: "q", wake: make(chan struct{})}
	s.mu.Lock()
	s.registerLocked(live)
	s.mu.Unlock()

	first, err := cl.SubmitKeyed(ctx, req, "first")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	// Every later identical request is a cache hit, finished at once.
	for i := 1; i < maxFinishedJobs; i++ {
		if _, se := s.submit(ctx, req, "", "", false); se != nil {
			t.Fatal(se)
		}
	}
	if _, err := cl.Job(ctx, first.ID); err != nil {
		t.Fatalf("finished job dropped before %d others finished: %v", maxFinishedJobs, err)
	}
	if _, se := s.submit(ctx, req, "", "", false); se != nil {
		t.Fatal(se)
	}
	_, err = cl.Job(ctx, first.ID)
	if se, ok := err.(*gpapriori.ServeError); !ok || se.Status != http.StatusNotFound || se.Code != "unknown_job" {
		t.Fatalf("oldest finished job: got %v, want 404 unknown_job", err)
	}
	// Its idempotency entry went with it: the same key is a new job.
	again, err := cl.SubmitKeyed(ctx, req, "first")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == first.ID {
		t.Fatalf("idempotency key of a dropped job still resolves to %s", first.ID)
	}
	if _, err := cl.Job(ctx, live.id); err != nil {
		t.Fatalf("live job dropped: %v", err)
	}
	s.mu.Lock()
	jobs, keys := len(s.jobs), len(s.idem)
	s.mu.Unlock()
	if jobs != maxFinishedJobs+1 || keys != 1 {
		t.Fatalf("daemon holds %d records and %d idempotency keys, want %d and 1",
			jobs, keys, maxFinishedJobs+1)
	}
}

// slowRequest is a mining request that runs long enough to cancel or
// drain mid-flight, after its first checkpoint: on a 2-CPU host the
// pipeline mines its 165,594 itemsets in 0.9–1.4 s (8 s under -race)
// and passes the first of its 7 generation boundaries 0.3–0.6 s before
// its last task.
func slowRequest() gpapriori.ServeMineRequest {
	return gpapriori.ServeMineRequest{
		Dataset: "slow", RelativeSupport: 0.30, MaxLen: 8, NoCache: true,
	}
}

// slowResult is slowRequest's offline result, mined once per test
// binary: it takes seconds under -race.
var slowResult = sync.OnceValues(func() ([]gpapriori.Itemset, error) {
	db, err := gpapriori.GeneratePaperDataset("chess", 1.0)
	if err != nil {
		return nil, err
	}
	res, err := gpapriori.Mine(db, slowRequest().MiningConfig())
	if err != nil {
		return nil, err
	}
	return res.Itemsets, nil
})

// slowWant returns slowRequest's offline result.
func slowWant(t *testing.T) []gpapriori.Itemset {
	t.Helper()
	want, err := slowResult()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// slowRegistry registers the chess-like dataset the slow request mines.
func slowRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.AddSpec("slow", "gen:chess:1.0"); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestCancelRunningJob: cancelling an in-flight job ends it in the
// canceled state and the result endpoint refuses with a typed conflict.
func TestCancelRunningJob(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Registry: slowRegistry(t)})
	ctx := context.Background()

	job, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobCanceled.String() {
		t.Fatalf("state %q after cancel, want canceled", final.State)
	}
	if _, err := cl.Result(ctx, job.ID); err == nil {
		t.Fatal("result of a canceled job: want conflict error")
	} else if se, ok := err.(*gpapriori.ServeError); !ok || se.Code != "conflict" {
		t.Fatalf("result of a canceled job: got %v, want conflict", err)
	}
}

// TestJobDeadlineFails: a job still running when its deadline_sec
// expires has its run cancelled and ends failed with the typed deadline
// error.
func TestJobDeadlineFails(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{Registry: slowRegistry(t)})
	ctx := context.Background()
	req := slowRequest()
	req.DeadlineSec = 0.001
	job, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobFailed.String() || !strings.Contains(final.Error, jobs.ErrDeadline.Error()) {
		t.Fatalf("job past its deadline ended %s (%q), want failed with %q",
			final.State, final.Error, jobs.ErrDeadline.Error())
	}
}

// TestOverBudgetJobRejected: a job whose modeled footprint exceeds the
// whole admission budget is refused at submit with the typed 413, and a
// job that fits the same budget mines.
func TestOverBudgetJobRejected(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add("q", "test", testDB(t)); err != nil {
		t.Fatal(err)
	}
	// 2,000 items over 5,000 transactions: at support 10, about 1,170
	// items are frequent, and the pipeline's first-generation slab and
	// class-vector cache model about 1.4 MiB, past the 1 MiB budget.
	big, err := reg.AddSpec("big", "quest:2000:5000:10:1")
	if err != nil {
		t.Fatal(err)
	}
	const bigSupport = 10
	if est := gpapriori.EstimateMemoryBytes(big.DB, bigSupport); est <= 1<<20 {
		t.Fatalf("dataset big models %d bytes at support %d, want past the 1 MiB budget", est, bigSupport)
	}
	_, cl, _ := newTestServer(t, Config{Registry: reg, Jobs: gpapriori.JobManagerConfig{MemoryBudgetMB: 1}})
	ctx := context.Background()
	_, err = cl.Submit(ctx, gpapriori.ServeMineRequest{Dataset: "big", MinSupport: bigSupport})
	if se, ok := err.(*gpapriori.ServeError); !ok || se.Status != http.StatusRequestEntityTooLarge || se.Code != "over_budget" {
		t.Fatalf("oversized job: got %v, want 413 over_budget", err)
	}
	if _, _, err := cl.Mine(ctx, gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 20}); err != nil {
		t.Fatalf("job within the budget: %v", err)
	}
}

// TestDrainAndResume is the durability criterion: drain a server with
// an in-flight job, restart over the same state directory, and the
// replayed job must complete — from its checkpoint — to the identical
// offline result. Its stream, read from the start on the restarted
// daemon, must carry that result too, each itemset exactly once: the
// resumed run's first boundary carries its resume point.
func TestDrainAndResume(t *testing.T) {
	// Registered before newTestServer so the LIFO cleanup order runs the
	// leak check after both servers' teardowns.
	t.Cleanup(testutil.LeakCheck(t, 2, 10*time.Second))
	stateDir := t.TempDir()
	reg := slowRegistry(t)
	s1, cl1, ts1 := newTestServer(t, Config{Registry: reg, StateDir: stateDir})

	job, err := cl1.Submit(context.Background(), slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first durable checkpoint before pulling the plug, so
	// the resume genuinely fast-forwards.
	deadline := time.Now().Add(20 * time.Second)
	for {
		info, err := cl1.Job(context.Background(), job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == gpapriori.JobCheckpointed.String() {
			break
		}
		if info.Terminal() {
			t.Fatalf("slow job finished (%s) before a checkpoint was observed", info.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after 20s (state %s)", info.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	// Health must now answer "draining" and submissions must be shed.
	// (The httptest server is closed; check via the rejection path on
	// the restarted server below instead, where drain is re-run.)

	_, cl2, _ := newTestServer(t, Config{Registry: reg, StateDir: stateDir})
	var streamed []gpapriori.Itemset
	if _, err := cl2.Stream(context.Background(), job.ID, func(ev gpapriori.ServeGenerationEvent) error {
		streamed = append(streamed, ev.Itemsets...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	final, err := cl2.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobDone.String() {
		t.Fatalf("replayed job ended %s (%s), want done", final.State, final.Error)
	}
	got, err := cl2.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := slowWant(t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result differs from offline (%d vs %d sets)", len(got), len(want))
	}
	// Each event is canonical and longer than the last, so the stream
	// in order is the canonical result, with no itemset repeated.
	if !reflect.DeepEqual(streamed, want) {
		t.Fatalf("resumed stream carried %d itemsets, want the offline result's %d, each once", len(streamed), len(want))
	}
}

// TestJournalNamingOtherEnginesReplaysUnderPipeline: a drain journal
// in the wire form of a build that mined with the engine a request
// named replays under the pipeline. Each replayed job ends done,
// reports the pipeline and returns the offline result; a journaled job
// whose dataset is gone fails, and its job info names the pipeline too.
func TestJournalNamingOtherEnginesReplaysUnderPipeline(t *testing.T) {
	stateDir := t.TempDir()
	journal := `{"jobs":[` +
		`{"id":"job-3","idem_key":"k3","request":{"dataset":"q","algorithm":"goethals","min_support":20}},` +
		`{"id":"job-7","request":{"dataset":"q","algorithm":"gpapriori","min_support":12,"max_len":3,"priority":2}},` +
		`{"id":"job-9","request":{"dataset":"gone","algorithm":"eclat","min_support":5}}]}`
	if err := os.WriteFile(filepath.Join(stateDir, "pending.json"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cl, _ := newTestServer(t, Config{StateDir: stateDir})
	ctx := context.Background()
	pipeline := string(gpapriori.AlgoPipeline)
	for _, c := range []struct {
		id  string
		cfg gpapriori.Config
	}{
		{"job-3", gpapriori.Config{MinSupport: 20}},
		{"job-7", gpapriori.Config{MinSupport: 12, MaxLen: 3}},
	} {
		final, err := cl.Wait(ctx, c.id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != gpapriori.JobDone.String() || final.Algorithm != pipeline {
			t.Fatalf("replayed %s ended %s on %q (%s), want done on %q",
				c.id, final.State, final.Algorithm, final.Error, pipeline)
		}
		got, err := cl.Result(ctx, c.id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gpapriori.Mine(testDB(t), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Itemsets) {
			t.Fatalf("replayed %s: %d itemsets, offline %d", c.id, len(got), len(want.Itemsets))
		}
	}
	gone, err := cl.Job(ctx, "job-9")
	if err != nil {
		t.Fatal(err)
	}
	if gone.State != gpapriori.JobFailed.String() || gone.Algorithm != pipeline {
		t.Fatalf("replay of an unregistered dataset ended %s on %q, want failed on %q", gone.State, gone.Algorithm, pipeline)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "pending.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("journal after replay: %v, want it removed", err)
	}
}

// TestWaitFollowsDrainRequeue: a client waiting on a job while its
// daemon drains is told neither of the drain's cancellation nor of an
// error. The job is journaled, and Wait follows it through the restart
// on the same state dir and address to done with the offline result.
func TestWaitFollowsDrainRequeue(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 2, 10*time.Second))
	ctx := context.Background()
	cfg := Config{Registry: slowRegistry(t), StateDir: t.TempDir(),
		Jobs: gpapriori.JobManagerConfig{MemoryBudgetMB: 256}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s1, ts1 := bootPeer(t, cfg, ln)
	t.Cleanup(ts1.Close)
	cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{
		BaseURL: "http://" + addr, PollWait: 2 * time.Second,
		Retry: gpapriori.RetryPolicy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	type waited struct {
		info *gpapriori.ServeJobInfo
		err  error
	}
	done := make(chan waited, 1)
	go func() {
		info, err := cl.Wait(ctx, job.ID)
		done <- waited{info, err}
	}()

	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if info, err := cl.Job(ctx, job.ID); err != nil || !info.Requeued {
		t.Fatalf("drained job: %+v, %v; want it requeued", info, err)
	}
	// The drained daemon keeps answering for a while, as one that is
	// still shutting down would; Wait must not take its answer as final.
	select {
	case w := <-done:
		t.Fatalf("Wait returned from the drained daemon: %+v, %v", w.info, w.err)
	case <-time.After(time.Second):
	}
	ts1.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := bootPeer(t, cfg, ln2)
	t.Cleanup(func() {
		s2.Drain(ctx)
		ts2.Close()
	})

	w := <-done
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.info.State != gpapriori.JobDone.String() {
		t.Fatalf("Wait ended %s (requeued=%v, %s), want done", w.info.State, w.info.Requeued, w.info.Error)
	}
	got, err := cl.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := slowWant(t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("requeued job's result differs from offline (%d vs %d sets)", len(got), len(want))
	}
}

// TestSnapshotHidesUnpublishedEnd: a record whose job has ended but
// whose terminal info is not yet published reads as running, so a
// long-polling client never takes it for the final answer (which alone
// carries the result count, the error and a drain's requeued flag).
func TestSnapshotHidesUnpublishedEnd(t *testing.T) {
	jm, err := jobs.NewManager(jobs.Options{MemoryBudgetBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	job := &jobs.Job{Name: "j", Run: func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}}
	if err := jm.Submit(job); err != nil {
		t.Fatal(err)
	}
	jm.Cancel(job)
	<-job.Done()
	rec := &jobRecord{id: "j", job: job, wake: make(chan struct{})}
	if info, terminal, _ := rec.snapshot(); terminal || info.Terminal() {
		t.Fatalf("a record with an unpublished end reads %s (terminal %v)", info.State, terminal)
	}
}

// TestDrainRejectsSubmissions: after Drain begins, /healthz reports
// draining and new submissions get the typed 503.
func TestDrainRejectsSubmissions(t *testing.T) {
	s, cl, _ := newTestServer(t, Config{})
	ctx := context.Background()
	if st, err := cl.Health(ctx); err != nil || st != "ok" {
		t.Fatalf("health before drain: %q, %v", st, err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Health(ctx); err != nil || st != "draining" {
		t.Fatalf("health after drain: %q, %v", st, err)
	}
	_, err := cl.Submit(ctx, gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 10})
	if se, ok := err.(*gpapriori.ServeError); !ok || se.Code != "draining" || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %v, want 503 draining", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("statsz must report draining")
	}
}

// TestStreamDeliversGenerations: a pipeline run streams more than one
// event, each generation's itemsets have the right length, and the
// union equals the full result.
func TestStreamDeliversGenerations(t *testing.T) {
	// A streaming handler that outlives its client is the leak this
	// suite exists to catch; check after the cleanup-managed teardown.
	t.Cleanup(testutil.LeakCheck(t, 2, 10*time.Second))
	_, cl, _ := newTestServer(t, Config{})
	events, final := streamJob(t, cl, gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 20, NoCache: true})
	if len(events) < 2 {
		t.Fatalf("got %d stream events, want at least one generation plus the final", len(events))
	}
	total := 0
	for _, ev := range events {
		total += len(ev.Itemsets)
	}
	for _, ev := range events[:len(events)-1] {
		for _, s := range ev.Itemsets {
			if len(s.Items) > ev.Gen {
				t.Fatalf("generation %d event carries a length-%d itemset", ev.Gen, len(s.Items))
			}
		}
	}
	if final.Itemsets != total {
		t.Fatalf("streamed %d itemsets, final reports %d", total, final.Itemsets)
	}
}

// streamJob submits req and collects its stream events, the final one
// included, and the final job info.
func streamJob(t *testing.T, cl *gpapriori.ServeClient, req gpapriori.ServeMineRequest) ([]gpapriori.ServeGenerationEvent, *gpapriori.ServeJobInfo) {
	t.Helper()
	ctx := context.Background()
	job, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var events []gpapriori.ServeGenerationEvent
	final, err := cl.Stream(ctx, job.ID, func(ev gpapriori.ServeGenerationEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return events, final
}

// TestDefaultJobCheckpointsAndResumes: with a state directory, a job
// that ends done deletes its checkpoint, which by then holds its whole
// result. A no_cache resubmission of the same query therefore mines in
// full — it streams every generation again, from the first — and it
// too leaves no checkpoint behind. Resuming an unfinished job is
// TestDrainAndResume's.
func TestDefaultJobCheckpointsAndResumes(t *testing.T) {
	s, cl, _ := newTestServer(t, Config{StateDir: t.TempDir()})
	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 8, NoCache: true}
	key, _, err := gpapriori.ResultFingerprint(testDB(t), req.MiningConfig())
	if err != nil {
		t.Fatal(err)
	}
	noCheckpoint := func(when string) {
		t.Helper()
		if _, err := os.Stat(s.ckptPath(key)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("checkpoint after %s: %v, want none", when, err)
		}
	}
	first, final := streamJob(t, cl, req)
	if final.State != gpapriori.JobDone.String() {
		t.Fatalf("default job ended %s, want done", final.State)
	}
	if len(first) < 3 {
		t.Fatalf("default job streamed %d events, want several generations", len(first))
	}
	noCheckpoint("the first job")
	second, final2 := streamJob(t, cl, req)
	if len(second) != len(first) || second[0].Gen != first[0].Gen {
		t.Fatalf("resubmission streamed %d events from generation %d, want all %d from generation %d",
			len(second), second[0].Gen, len(first), first[0].Gen)
	}
	if final2.Itemsets != final.Itemsets || final2.Cached {
		t.Fatalf("resubmission found %d itemsets (cached %v), want %d mined", final2.Itemsets, final2.Cached, final.Itemsets)
	}
	noCheckpoint("the resubmission")
}

// TestDatasetsEndpoint lists the registry.
func TestDatasetsEndpoint(t *testing.T) {
	_, cl, _ := newTestServer(t, Config{})
	ds, err := cl.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Name != "q" || ds[0].Transactions != testDB(t).Len() || ds[0].BitsetBytes <= 0 {
		t.Fatalf("datasets: %+v", ds)
	}
}
