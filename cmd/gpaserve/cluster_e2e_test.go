package main

// The cluster kill-a-peer torture: three real gpaserve processes form
// a placement ring, a client submits through a peer that does not own
// the dataset, and the owner is SIGKILLed by a checkpoint crashpoint
// mid-job. The forwarding layer must fail the job over to a surviving
// peer and the client — which never stops talking to the same
// non-owner — must end with a result byte-identical to a clean offline
// run, while the killed owner restarts into the ring without torn
// state.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"gpapriori"
	"gpapriori/internal/peer"
)

// startClusterDaemon launches gpaserve as one member of a static peer
// list, with test-fast probe timing so suspicion lands within ~200ms.
func startClusterDaemon(t *testing.T, bin, stateDir, crashpoint, addr, self string, peers []string) *daemon {
	t.Helper()
	args := []string{
		"-listen", addr,
		"-dataset", "slow=gen:chess:1.0",
		"-state-dir", stateDir,
		"-drain-timeout", "60",
		"-peers", strings.Join(peers, ","),
		"-self", self,
		"-replication", "1",
		"-probe-interval", "50ms",
		"-probe-timeout", "500ms",
		"-suspect-after", "2",
		"-recover-after", "1",
	}
	return launchDaemon(t, bin, crashpoint, true, args)
}

func TestClusterKillOwnerTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture in -short mode")
	}
	bin := buildDaemon(t)
	want := offlineWant(t)

	addrs := make([]string, 3)
	urls := make([]string, 3)
	for i := range addrs {
		addrs[i] = pickAddr(t)
		urls[i] = "http://" + addrs[i]
	}
	// Placement is a pure function of the peer list and the dataset
	// fingerprint, so the test computes the owner the same way the
	// daemons will and arms only that process with the crashpoint.
	db, err := gpapriori.GeneratePaperDataset("chess", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	key, err := gpapriori.DatasetFingerprint(db)
	if err != nil {
		t.Fatal(err)
	}
	seq := peer.NewRing(urls).Sequence(key)
	ownerURL := seq[0]
	owner, nonOwner := -1, -1
	for i, u := range urls {
		switch {
		case u == ownerURL:
			owner = i
		case nonOwner < 0:
			nonOwner = i
		}
	}

	stateDirs := make([]string, 3)
	daemons := make([]*daemon, 3)
	for i := range urls {
		stateDirs[i] = t.TempDir()
		cp := ""
		if i == owner {
			cp = "checkpoint.after-rename"
		}
		daemons[i] = startClusterDaemon(t, bin, stateDirs[i], cp, addrs[i], urls[i], urls)
	}

	cl := newClient(t, addrs[nonOwner])
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	job, err := cl.Submit(ctx, tortureRequest())
	if err != nil {
		t.Fatalf("submit via non-owner: %v", err)
	}

	// The owner dies at its first checkpoint rename, mid-job — and
	// stays dead, so the forwarding loop has no choice but to re-resolve
	// the dataset onto a surviving peer.
	daemons[owner].awaitKilled(t)
	assertNoTornFiles(t, stateDirs[owner])

	// The client never left the non-owner; the job must still finish
	// with the clean-run result. (finishAndVerify's exactly-one-job
	// book check does not apply: when the failover re-resolves onto the
	// non-owner itself, its books correctly show the forwarded record
	// plus the self-landed local job.)
	final, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("wait through owner kill: %v", err)
	}
	if final.State != gpapriori.JobDone.String() {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if got := resultBody(t, addrs[nonOwner], final.ID); !bytes.Equal(got, want) {
		t.Fatalf("failover result differs from the clean run (%d vs %d bytes)", len(got), len(want))
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.ForwardedJobs != 1 {
		t.Fatalf("non-owner cluster stats %+v, want 1 forwarded job", st.Cluster)
	}
	if st.Cluster.ForwardFailovers == 0 {
		t.Error("killing the sole owner mid-job must count at least one failover")
	}
	terminal := st.Jobs.Done + st.Jobs.Failed + st.Jobs.Shed + st.Jobs.Canceled
	if st.Jobs.Submitted != terminal {
		t.Fatalf("non-owner books unsettled: %d submitted, %d terminal", st.Jobs.Submitted, terminal)
	}

	// Restart the killed owner unarmed over its surviving state: it
	// must rejoin the ring and report healthy.
	startClusterDaemon(t, bin, stateDirs[owner], "", addrs[owner], urls[owner], urls)
	ocl := newClient(t, addrs[owner])
	h, err := ocl.HealthDetail(ctx)
	if err != nil {
		t.Fatalf("restarted owner health: %v", err)
	}
	if h.Status != "ok" || h.Cluster == nil || len(h.Cluster.Peers) != 3 {
		t.Fatalf("restarted owner health %+v, want ok with 3 peers", h)
	}
}
