// Cluster-mode tests: three real Servers on real listeners forming a
// placement ring, exercised through the public HTTP surface exactly as
// a client would — forwarding, peer cache replication, failover past a
// killed owner, and the degraded health contract.
package server

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpapriori"
	"gpapriori/internal/fsfault"
	"gpapriori/internal/peer"
	"gpapriori/internal/testutil"
)

// testCluster is an in-process n-peer cluster over loopback listeners.
type testCluster struct {
	servers []*Server
	clients []*gpapriori.ServeClient
	urls    []string
	https   []*httptest.Server
	// cfgs are the peers' configs, kept so restart boots the same peer.
	cfgs []Config
}

// newTestCluster boots n Servers that know each other through a static
// peer list, every one registering the same dataset "q". Probe timing
// is test-fast: suspicion lands within ~200ms of a peer dying.
// configure, when non-nil, adjusts each peer's Config before boot (a
// replaced Registry must register the same datasets on every peer).
func newTestCluster(t *testing.T, n, replication int, configure func(*Config)) *testCluster {
	t.Helper()
	t.Cleanup(testutil.LeakCheck(t, 2, 15*time.Second))

	// The peer list must exist before any Server does, so bind the
	// listeners first and build the URLs from their ports.
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}

	tc := &testCluster{urls: urls}
	for i := 0; i < n; i++ {
		reg := NewRegistry()
		if _, err := reg.Add("q", "test", testDB(t)); err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Registry:         reg,
			CacheBudgetBytes: 4 << 20,
			Jobs:             gpapriori.JobManagerConfig{MemoryBudgetMB: 256},
			Cluster: peer.Config{
				Self:          urls[i],
				Peers:         urls,
				Replication:   replication,
				ProbeInterval: 50 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
				SuspectAfter:  2,
				RecoverAfter:  1,
			},
		}
		if configure != nil {
			configure(&cfg)
		}
		s, ts := bootPeer(t, cfg, lns[i])
		cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{
			BaseURL: urls[i], PollWait: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, s)
		tc.clients = append(tc.clients, cl)
		tc.https = append(tc.https, ts)
		tc.cfgs = append(tc.cfgs, cfg)
	}
	t.Cleanup(func() {
		// Drain everyone first (stops probers and forwarders), then
		// close the HTTP servers — the reverse order would have Close
		// waiting on long-polls only a drain terminates.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, s := range tc.servers {
			s.Drain(ctx)
		}
		for _, ts := range tc.https {
			ts.Close()
		}
	})
	return tc
}

// bootPeer builds a Server from cfg and serves it on ln.
func bootPeer(t *testing.T, cfg Config, ln net.Listener) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	return s, ts
}

// restart drains peer i, closes its listener and boots it again from
// the same config (state dir included) on the same address, as a
// SIGTERM and restart of the daemon would.
func (tc *testCluster) restart(t *testing.T, i int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tc.servers[i].Drain(ctx); err != nil {
		t.Fatalf("drain peer %d: %v", i, err)
	}
	tc.https[i].Close()
	ln, err := net.Listen("tcp", strings.TrimPrefix(tc.urls[i], "http://"))
	if err != nil {
		t.Fatal(err)
	}
	tc.servers[i], tc.https[i] = bootPeer(t, tc.cfgs[i], ln)
}

// roles classifies the peers for dataset ds: the static owners in
// ring order, and one non-owner (-1 when replication covers everyone).
func (tc *testCluster) roles(t *testing.T, ds string) (owners []int, nonOwner int) {
	t.Helper()
	c := tc.servers[0].cluster
	ownerURLs := c.set.Owners(c.dsKeys[ds])
	byURL := map[string]int{}
	for i, u := range tc.urls {
		byURL[u] = i
	}
	for _, u := range ownerURLs {
		owners = append(owners, byURL[u])
	}
	nonOwner = -1
	for i := range tc.urls {
		if !containsPeer(ownerURLs, tc.urls[i]) {
			nonOwner = i
			break
		}
	}
	return owners, nonOwner
}

// kill makes peer i unreachable (connection refused) without any
// shutdown courtesy — the in-process stand-in for kill -9.
func (tc *testCluster) kill(i int) {
	tc.https[i].CloseClientConnections()
	tc.https[i].Listener.Close()
}

// waitFor polls cond until it holds or the deadline kills the test.
func waitFor(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterForwardEquivalence: a job submitted to a peer that does
// not own the dataset is forwarded to an owner and still yields the
// byte-identical offline result, streamed generations included.
func TestClusterForwardEquivalence(t *testing.T) {
	tc := newTestCluster(t, 3, 1, nil)
	owners, nonOwner := tc.roles(t, "q")
	if nonOwner < 0 {
		t.Fatal("replication 1 of 3 peers must leave a non-owner")
	}
	ctx := context.Background()

	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 25, NoCache: true}
	res, info, err := tc.clients[nonOwner].Mine(ctx, req)
	if err != nil {
		t.Fatalf("mine via non-owner: %v", err)
	}
	if info.Forwarded != tc.urls[owners[0]] {
		t.Fatalf("job forwarded to %q, want owner %q", info.Forwarded, tc.urls[owners[0]])
	}
	want, err := gpapriori.Mine(testDB(t), req.MiningConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Itemsets, want.Itemsets) {
		t.Fatalf("forwarded result differs from offline (%d vs %d sets)",
			len(res.Itemsets), len(want.Itemsets))
	}
	// The result endpoint on the non-owner serves the same canonical set.
	got, err := tc.clients[nonOwner].Result(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Itemsets) {
		t.Fatal("result endpoint differs from offline")
	}

	st, err := tc.clients[nonOwner].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("/statsz has no cluster section")
	}
	if st.Cluster.ForwardedJobs != 1 || st.Cluster.ForwardedDone != 1 {
		t.Fatalf("forward counters = %d submitted / %d done, want 1/1",
			st.Cluster.ForwardedJobs, st.Cluster.ForwardedDone)
	}
	if st.Jobs.Submitted != 1 || st.Jobs.Done != 1 {
		t.Fatalf("forwarded job missing from headline counters: %+v", st.Jobs)
	}
}

// TestClusterPeerCacheHit: an owner that has not mined a query yet
// finds the result in a co-owner's cache, installs the replica, and
// answers without mining.
func TestClusterPeerCacheHit(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	owners, _ := tc.roles(t, "q")
	if len(owners) != 2 {
		t.Fatalf("want 2 owners, got %v", owners)
	}
	primary, secondary := owners[0], owners[1]
	ctx := context.Background()

	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 25}
	first, firstInfo, err := tc.clients[primary].Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if firstInfo.Cached {
		t.Fatal("first request must mine")
	}
	second, secondInfo, err := tc.clients[secondary].Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !secondInfo.Cached {
		t.Fatal("co-owner must answer from the replicated cache entry")
	}
	if !reflect.DeepEqual(first.Itemsets, second.Itemsets) {
		t.Fatal("replicated answer differs from the mined one")
	}

	st, err := tc.clients[secondary].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.CachePeerHits != 1 || st.Cluster.CacheReplicasInstalled != 1 {
		t.Fatalf("peer cache counters = %d hits / %d installed, want 1/1",
			st.Cluster.CachePeerHits, st.Cluster.CacheReplicasInstalled)
	}
	pst, err := tc.clients[primary].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Cluster.CachePeerServed != 1 {
		t.Fatalf("primary served %d cache lookups, want 1", pst.Cluster.CachePeerServed)
	}
}

// TestClusterForwardSurvivesKilledOwner: the primary owner dies without
// warning; a submission through the non-owner fails over to the
// surviving replica and the result still matches offline byte for byte.
func TestClusterForwardSurvivesKilledOwner(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	owners, nonOwner := tc.roles(t, "q")
	if nonOwner < 0 {
		t.Fatal("replication 2 of 3 peers must leave a non-owner")
	}
	tc.kill(owners[0])

	ctx := context.Background()
	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 25, NoCache: true}
	res, info, err := tc.clients[nonOwner].Mine(ctx, req)
	if err != nil {
		t.Fatalf("mine via non-owner with dead primary: %v", err)
	}
	if info.Forwarded != tc.urls[owners[1]] {
		t.Fatalf("job landed on %q, want surviving owner %q", info.Forwarded, tc.urls[owners[1]])
	}
	want, err := gpapriori.Mine(testDB(t), req.MiningConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Itemsets, want.Itemsets) {
		t.Fatal("failover result differs from offline")
	}
}

// TestClusterDegradedHealth: a dead peer flips the surviving owner's
// /healthz to degraded, naming the dataset whose redundancy is gone;
// peers that own nothing near the dead node stay ok.
func TestClusterDegradedHealth(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	owners, nonOwner := tc.roles(t, "q")
	tc.kill(owners[0])

	ctx := context.Background()
	survivor := tc.clients[owners[1]]
	waitFor(t, 10*time.Second, "survivor to report degraded", func() bool {
		h, err := survivor.HealthDetail(ctx)
		return err == nil && h.Status == "degraded"
	})
	h, err := survivor.HealthDetail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatal("/healthz has no cluster section")
	}
	if !containsPeer(h.Cluster.DegradedDatasets, "q") {
		t.Fatalf("degraded datasets %v must include q", h.Cluster.DegradedDatasets)
	}
	suspected := 0
	for _, p := range h.Cluster.Peers {
		if p.State == "suspected" {
			suspected++
		}
	}
	if suspected != 1 {
		t.Fatalf("survivor sees %d suspected peers, want 1", suspected)
	}
	// The non-owner holds no replica of q, so its own health stays ok
	// even though it sees the same dead peer.
	if nonOwner >= 0 {
		nh, err := tc.clients[nonOwner].HealthDetail(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if nh.Status != "ok" {
			t.Fatalf("non-owner health %q, want ok", nh.Status)
		}
	}
}

// TestClusterForwardKeepsOwnerDegraded: with every fsync failing, the
// owner's job mines on degraded, and the non-owner that forwarded it
// reports the owner's degraded flag in the job's terminal info.
func TestClusterForwardKeepsOwnerDegraded(t *testing.T) {
	in := fsfault.NewInjector(1)
	in.SetRates(0, 1, 0) // every fsync fails; writes and renames pass
	// Registered before the cluster so the disk heals after its drain.
	t.Cleanup(fsfault.SetForTest(in))
	tc := newTestCluster(t, 3, 1, func(cfg *Config) { cfg.StateDir = t.TempDir() })
	owners, nonOwner := tc.roles(t, "q")
	ctx := context.Background()

	req := gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 25, NoCache: true}
	job, err := tc.clients[nonOwner].Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := tc.clients[nonOwner].Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobDone.String() || final.Forwarded != tc.urls[owners[0]] {
		t.Fatalf("forwarded job ended %s on %q, want done on owner %q", final.State, final.Forwarded, tc.urls[owners[0]])
	}
	st, err := tc.clients[owners[0]].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.DegradedJobs != 1 {
		t.Fatalf("owner degraded_jobs = %d, want 1", st.Durability.DegradedJobs)
	}
	if !final.Degraded {
		t.Fatal("the non-owner's terminal info dropped the owner's degraded flag")
	}
}

// TestClusterCancelStopsOwnerJob: a client that cancels a forwarded job
// cancels the owner's job too, rather than leaving the owner mining a
// result nobody waits for.
func TestClusterCancelStopsOwnerJob(t *testing.T) {
	tc := newTestCluster(t, 3, 1, func(cfg *Config) { cfg.Registry = slowRegistry(t) })
	owners, nonOwner := tc.roles(t, "slow")
	ctx := context.Background()
	cl := tc.clients[nonOwner]

	job, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Once a generation is relayed, the forwarder streams the owner's
	// job and knows its id.
	errRelayed := errors.New("generation relayed")
	if _, err := cl.Stream(ctx, job.ID, func(gpapriori.ServeGenerationEvent) error {
		return errRelayed
	}); !errors.Is(err, errRelayed) {
		t.Fatalf("stream: %v, want a relayed generation", err)
	}
	if _, err := cl.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobCanceled.String() {
		t.Fatalf("forwarded job ended %s, want canceled", final.State)
	}
	owner := tc.clients[owners[0]]
	var st *gpapriori.ServeStats
	waitFor(t, 10*time.Second, "the owner's job to end", func() bool {
		st, err = owner.Stats(ctx)
		return err == nil && st.Jobs.Done+st.Jobs.Canceled > 0
	})
	if st.Jobs.Canceled != 1 || st.Jobs.Done != 0 {
		t.Fatalf("owner jobs: done %d, canceled %d, want 0 and 1", st.Jobs.Done, st.Jobs.Canceled)
	}
}

// TestClusterDrainedForwardReattaches: a non-owner drained mid-forward
// journals the job and leaves the owner's job running. Restarted on the
// same state dir, it re-forwards under the same idempotency key and
// re-attaches to that job, so the retrying client's Wait ends done with
// the offline result and the owner mines the request once.
func TestClusterDrainedForwardReattaches(t *testing.T) {
	tc := newTestCluster(t, 3, 1, func(cfg *Config) {
		cfg.Registry = slowRegistry(t)
		cfg.StateDir = t.TempDir()
	})
	owners, nonOwner := tc.roles(t, "slow")
	ctx := context.Background()
	cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{
		BaseURL: tc.urls[nonOwner], PollWait: 2 * time.Second,
		Retry: gpapriori.RetryPolicy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	job, err := cl.Submit(ctx, slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.clients[owners[0]]
	waitFor(t, 10*time.Second, "the owner to admit the forwarded job", func() bool {
		st, err := owner.Stats(ctx)
		return err == nil && st.Jobs.Submitted == 1
	})
	tc.restart(t, nonOwner)

	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobDone.String() {
		t.Fatalf("re-forwarded job ended %s (%s), want done", final.State, final.Error)
	}
	got, err := cl.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := slowWant(t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-forwarded result differs from offline (%d vs %d sets)", len(got), len(want))
	}
	st, err := owner.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Submitted != 1 || st.Durability.IdempotentHits != 1 {
		t.Fatalf("owner ran %d jobs with %d idempotent hits, want 1 and 1",
			st.Jobs.Submitted, st.Durability.IdempotentHits)
	}
}

// TestClusterForwardRefusesOtherContent: an owner that registered other
// content under a dataset's name computes another result key for the
// same request. The non-owner, seeing that key in the owner's job info,
// fails the forwarded job with dataset_mismatch instead of answering
// with the owner's itemsets.
func TestClusterForwardRefusesOtherContent(t *testing.T) {
	key, err := gpapriori.DatasetFingerprint(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, 3, 1, func(cfg *Config) {
		// The peer that owns testDB's content registers other content
		// under its name; the other peers place "q" on it all the same.
		if peer.NewRing(cfg.Cluster.Peers).Sequence(key)[0] != cfg.Cluster.Self {
			return
		}
		cfg.Registry = NewRegistry()
		if _, err := cfg.Registry.Add("q", "test", gpapriori.GenerateQuest(60, 400, 8, 4, 8)); err != nil {
			t.Fatal(err)
		}
	})
	owner := peer.NewRing(tc.urls).Sequence(key)[0]
	nonOwner := 0
	if tc.urls[0] == owner {
		nonOwner = 1
	}

	ctx := context.Background()
	cl := tc.clients[nonOwner]
	job, err := cl.Submit(ctx, gpapriori.ServeMineRequest{Dataset: "q", MinSupport: 20})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != gpapriori.JobFailed.String() || !strings.Contains(final.Error, "dataset_mismatch") {
		t.Fatalf("forward to an owner with other content ended %s (%q), want failed with dataset_mismatch",
			final.State, final.Error)
	}
	if final.Forwarded != owner {
		t.Fatalf("failed forward names owner %q, want %q", final.Forwarded, owner)
	}
}
