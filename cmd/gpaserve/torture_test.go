package main

// The crashpoint torture test: for every registered crashpoint, run a
// real gpaserve subprocess armed to SIGKILL itself at that write/rename
// boundary, kill it mid-durability-operation, restart over the same
// state directory, and assert the end-to-end contract — no torn files,
// no duplicate jobs, and a final result identical to a clean offline
// run. The retrying/idempotent ServeClient is the same code a
// production caller uses, so this also exercises transparent
// resubmission after a restart forgot the job id.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gpapriori"
	"gpapriori/internal/checkpoint"
	"gpapriori/internal/dataset"
	"gpapriori/internal/fsfault"
	"gpapriori/internal/resultio"
)

// buildDaemon compiles the gpaserve binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gpaserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building gpaserve: %v", err)
	}
	return bin
}

// daemon is one running gpaserve subprocess.
type daemon struct {
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait exactly once
}

// pickAddrs reserves n distinct listen addresses that the scenario's
// every daemon boot reuses — a restart must come back on the same
// address for the original client to follow it, exactly like
// production. Every probe listener stays open until all n addresses
// are drawn, so the kernel cannot hand out one port twice.
func pickAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// startDaemon launches gpaserve on addr over stateDir. crashpoint,
// when non-empty, arms the named self-kill. waitReady controls whether
// the call blocks until the daemon is listening (a daemon armed to
// crash during startup never gets that far).
func startDaemon(t *testing.T, bin, stateDir, crashpoint, addr string, waitReady bool) *daemon {
	t.Helper()
	return launchDaemon(t, bin, crashpoint, waitReady, []string{
		"-listen", addr,
		"-dataset", "slow=gen:chess:1.0",
		"-state-dir", stateDir,
		"-drain-timeout", "60",
	})
}

// launchDaemon is the shared subprocess launcher: args plus a fresh
// -port-file, the crashpoint armed through the environment.
func launchDaemon(t *testing.T, bin, crashpoint string, waitReady bool, args []string) *daemon {
	t.Helper()
	portFile := filepath.Join(t.TempDir(), "port")
	cmd := exec.Command(bin, append(args, "-port-file", portFile)...)
	cmd.Env = os.Environ()
	if crashpoint != "" {
		cmd.Env = append(cmd.Env, fsfault.CrashEnv+"="+crashpoint)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		err := <-d.done
		d.done <- err
	})
	if !waitReady {
		return d
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(portFile); err == nil && len(data) > 0 {
			return d
		}
		select {
		case err := <-d.done:
			d.done <- err
			t.Fatalf("daemon exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its port file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitKilled blocks until the daemon dies and asserts it died by
// SIGKILL — the crashpoint fired — rather than exiting.
func (d *daemon) awaitKilled(t *testing.T) {
	t.Helper()
	select {
	case err := <-d.done:
		d.done <- err
		ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("daemon ended without the crashpoint SIGKILL: %v (%v)", err, d.cmd.ProcessState)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("daemon outlived its armed crashpoint")
	}
}

// awaitExit blocks until the daemon exits cleanly (status 0).
func (d *daemon) awaitExit(t *testing.T) {
	t.Helper()
	select {
	case err := <-d.done:
		d.done <- err
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// newClient builds the resilient ServeClient a torture scenario drives
// through every daemon boot on addr — it must be ONE client, because
// post-restart recovery rides on its remembered idempotency keys.
func newClient(t *testing.T, addr string) *gpapriori.ServeClient {
	t.Helper()
	cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{
		BaseURL: "http://" + addr,
		Retry: gpapriori.RetryPolicy{
			MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, Jitter: 0.2, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// tortureRequest is the mining request every scenario submits: slow
// enough to kill mid-run (0.9–1.4 s on a 2-CPU host, the first of its 7
// generation boundaries 0.3–0.6 s before its last task), checkpointing
// at every boundary.
func tortureRequest() gpapriori.ServeMineRequest {
	return gpapriori.ServeMineRequest{
		Dataset: "slow", RelativeSupport: 0.30, MaxLen: 8,
	}
}

// offlineResult mines the torture request locally and renders it as a
// daemon's /result body, once per test binary: it takes seconds under
// -race.
var offlineResult = sync.OnceValues(func() ([]byte, error) {
	db, err := gpapriori.GeneratePaperDataset("chess", 1.0)
	if err != nil {
		return nil, err
	}
	res, err := gpapriori.Mine(db, tortureRequest().MiningConfig())
	if err != nil {
		return nil, err
	}
	rs := &dataset.ResultSet{}
	for _, s := range res.Itemsets {
		rs.Add(s.Items, s.Support)
	}
	var buf bytes.Buffer
	err = resultio.Write(&buf, rs)
	return buf.Bytes(), err
})

// offlineWant is the clean-run result body every post-crash recovery
// must reproduce byte for byte.
func offlineWant(t *testing.T) []byte {
	t.Helper()
	want, err := offlineResult()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// assertNoTornFiles checks the atomic-write discipline held through
// the kill: every checkpoint in stateDir loads, and pending.json — if
// present — parses. Leftover *.tmp* files are expected kill debris;
// damage must never be visible under the final names.
func assertNoTornFiles(t *testing.T, stateDir string) {
	t.Helper()
	ents, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.Contains(name, ".tmp"):
		case strings.HasSuffix(name, ".ckpt"):
			if _, err := checkpoint.Load(filepath.Join(stateDir, name)); err != nil {
				t.Errorf("torn checkpoint %s: %v", name, err)
			}
		case name == "pending.json":
			data, err := os.ReadFile(filepath.Join(stateDir, name))
			if err != nil {
				t.Fatal(err)
			}
			var v any
			if err := json.Unmarshal(data, &v); err != nil {
				t.Errorf("torn drain journal: %v", err)
			}
		}
	}
}

// awaitCheckpointed polls until the job has a durable checkpoint (the
// precondition for a meaningful drain) and fails if it finishes first.
func awaitCheckpointed(t *testing.T, cl *gpapriori.ServeClient, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == gpapriori.JobCheckpointed.String() {
			return
		}
		if info.Terminal() {
			t.Fatalf("job finished (%s) before its first checkpoint", info.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after 60s (state %s)", info.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// resultBody fetches a done job's /result body from the daemon on addr.
func resultBody(t *testing.T, addr, id string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result of %s: %s: %s", id, resp.Status, body)
	}
	return body
}

// finishAndVerify drives the job to completion on the restarted daemon
// on addr and asserts the recovered result is identical to the clean
// offline run, with no duplicate jobs on the books.
func finishAndVerify(t *testing.T, addr, id string, cl *gpapriori.ServeClient, want []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait through restart: %v", err)
	}
	if final.State != gpapriori.JobDone.String() {
		t.Fatalf("recovered job ended %s (%s), want done", final.State, final.Error)
	}
	if got := resultBody(t, addr, final.ID); !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from the clean run (%d vs %d bytes)", len(got), len(want))
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := st.Jobs.Done + st.Jobs.Failed + st.Jobs.Shed + st.Jobs.Canceled
	if st.Jobs.Submitted != 1 || total != st.Jobs.Submitted {
		t.Fatalf("restarted daemon has %d submitted / %d terminal jobs, want exactly 1 — no duplicates",
			st.Jobs.Submitted, total)
	}
}

// TestCrashpointTorture is the chaos harness: one subtest per
// registered crashpoint. The explicit scenario map means an engineer
// adding a crashpoint must also decide how to torture it — the test
// fails on any registered-but-unhandled name.
func TestCrashpointTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess torture in -short mode")
	}
	bin := buildDaemon(t)
	want := offlineWant(t)
	scenarios := map[string]func(*testing.T, string, string, []byte){
		fsfault.CrashCheckpointAfterTemp:       tortureCheckpointCrash,
		fsfault.CrashCheckpointAfterRename:     tortureCheckpointCrash,
		fsfault.CrashJournalAfterTemp:          tortureJournalCrash,
		fsfault.CrashJournalAfterRename:        tortureJournalCrash,
		fsfault.CrashJournalBeforeReplayRemove: tortureReplayCrash,
	}
	for _, cp := range fsfault.Crashpoints() {
		fn, ok := scenarios[cp]
		if !ok {
			t.Fatalf("crashpoint %q has no torture scenario — add one", cp)
		}
		cp := cp
		t.Run(cp, func(t *testing.T) { fn(t, bin, cp, want) })
	}
}

// tortureCheckpointCrash kills the daemon at a checkpoint-save
// boundary mid-mining. The job was never journaled, so the restarted
// daemon has forgotten it — recovery rides on the client resubmitting
// under the original idempotency key.
func tortureCheckpointCrash(t *testing.T, bin, cp string, want []byte) {
	stateDir, addr := t.TempDir(), pickAddrs(t, 1)[0]
	cl := newClient(t, addr)
	d1 := startDaemon(t, bin, stateDir, cp, addr, true)
	job, err := cl.Submit(context.Background(), tortureRequest())
	if err != nil {
		t.Fatal(err)
	}
	d1.awaitKilled(t)
	assertNoTornFiles(t, stateDir)

	startDaemon(t, bin, stateDir, "", addr, true)
	finishAndVerify(t, addr, job.ID, cl, want)
}

// tortureJournalCrash kills the daemon inside the drain-journal write.
// Depending on the boundary the journal survives (after-rename: the
// restart replays the same job id) or is lost (after-temp: the client
// recovers by resubmission) — either way the result must come out
// identical and exactly once.
func tortureJournalCrash(t *testing.T, bin, cp string, want []byte) {
	stateDir, addr := t.TempDir(), pickAddrs(t, 1)[0]
	cl := newClient(t, addr)
	d1 := startDaemon(t, bin, stateDir, cp, addr, true)
	job, err := cl.Submit(context.Background(), tortureRequest())
	if err != nil {
		t.Fatal(err)
	}
	awaitCheckpointed(t, cl, job.ID)
	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d1.awaitKilled(t)
	assertNoTornFiles(t, stateDir)
	_, statErr := os.Stat(filepath.Join(stateDir, "pending.json"))
	journalExists := statErr == nil
	if cp == fsfault.CrashJournalAfterRename && !journalExists {
		t.Fatal("crash after the journal rename must leave pending.json behind")
	}
	if cp == fsfault.CrashJournalAfterTemp && journalExists {
		t.Fatal("crash before the journal rename must not expose pending.json")
	}

	startDaemon(t, bin, stateDir, "", addr, true)
	finishAndVerify(t, addr, job.ID, cl, want)
}

// tortureReplayCrash kills a restarting daemon after it resubmitted
// the journal but before removing it: the journal survives to a third
// boot, which must replay it again without duplicating the job.
func tortureReplayCrash(t *testing.T, bin, cp string, want []byte) {
	stateDir, addr := t.TempDir(), pickAddrs(t, 1)[0]
	cl := newClient(t, addr)
	d1 := startDaemon(t, bin, stateDir, "", addr, true)
	job, err := cl.Submit(context.Background(), tortureRequest())
	if err != nil {
		t.Fatal(err)
	}
	awaitCheckpointed(t, cl, job.ID)
	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d1.awaitExit(t)
	if _, err := os.Stat(filepath.Join(stateDir, "pending.json")); err != nil {
		t.Fatalf("clean drain must journal the unfinished job: %v", err)
	}

	// The second boot crashes mid-replay, before removing the journal.
	d2 := startDaemon(t, bin, stateDir, cp, addr, false)
	d2.awaitKilled(t)
	assertNoTornFiles(t, stateDir)
	if _, err := os.Stat(filepath.Join(stateDir, "pending.json")); err != nil {
		t.Fatalf("journal must survive the pre-remove crash: %v", err)
	}

	startDaemon(t, bin, stateDir, "", addr, true)
	finishAndVerify(t, addr, job.ID, cl, want)
}
