package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gpapriori"
	"gpapriori/internal/server"
)

func TestExitStatusCodes(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{fmt.Errorf("resume: %w", gpapriori.ErrCheckpointMismatch), 2},
		{fmt.Errorf("resume: %w", gpapriori.ErrCheckpointCorrupt), 3},
		{errors.New("anything else"), 1},
	}
	for _, c := range cases {
		code, msg := exitStatus(c.err)
		if code != c.code {
			t.Errorf("exitStatus(%v) = %d, want %d", c.err, code, c.code)
		}
		if msg == "" {
			t.Errorf("exitStatus(%v): empty message", c.err)
		}
	}
}

// TestResumeExitPaths drives the two -resume failure modes end to end
// through run(): a checkpoint from a different run must map to exit 2,
// a damaged file to exit 3, and the messages must name the failure so
// scripts and humans can tell them apart.
func TestResumeExitPaths(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	ckpt := writeTempFile(t, "run.ckpt", "") // placeholder; overwritten below
	var out bytes.Buffer
	if err := run(&out, runOpts{input: path, minsup: 2, algo: "gpapriori",
		checkpoint: ckpt, quiet: true}); err != nil {
		t.Fatal(err)
	}

	// Same file, different minsup: a well-formed snapshot from another
	// run. This is recoverable by rerunning without -resume, so it gets
	// its own exit code.
	err := run(&out, runOpts{input: path, minsup: 3, algo: "gpapriori",
		checkpoint: ckpt, resume: true, quiet: true})
	if !errors.Is(err, gpapriori.ErrCheckpointMismatch) {
		t.Fatalf("mismatched resume: got %v, want ErrCheckpointMismatch", err)
	}
	if code, msg := exitStatus(err); code != 2 || !strings.Contains(msg, "mismatch") {
		t.Fatalf("mismatched resume: exit %d %q, want 2 + mismatch message", code, msg)
	}

	// Truncate the snapshot: bit rot, not a logic error.
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(&out, runOpts{input: path, minsup: 2, algo: "gpapriori",
		checkpoint: ckpt, resume: true, quiet: true})
	if !errors.Is(err, gpapriori.ErrCheckpointCorrupt) {
		t.Fatalf("corrupt resume: got %v, want ErrCheckpointCorrupt", err)
	}
	if code, msg := exitStatus(err); code != 3 || !strings.Contains(msg, "corrupt") {
		t.Fatalf("corrupt resume: exit %d %q, want 3 + corrupt message", code, msg)
	}
}

// testDaemon boots an in-process gpaserve over the figure-2 dataset and
// returns its base URL.
func testDaemon(t *testing.T, path string) string {
	t.Helper()
	reg := server.NewRegistry()
	if _, err := reg.AddSpec("fig2", "file:"+path); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Registry: reg,
		Jobs:     gpapriori.JobManagerConfig{MemoryBudgetMB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return ts.URL
}

// TestRunServeMode checks that -serve-url produces byte-identical
// -result-only output to an offline run on the same data, and that the
// JSON report shape matches the offline one.
func TestRunServeMode(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	url := testDaemon(t, path)

	var offline, served bytes.Buffer
	if err := run(&offline, runOpts{input: path, minsup: 0.75, resultOnly: true}); err != nil {
		t.Fatal(err)
	}
	if err := run(&served, runOpts{serveURL: url, dsName: "fig2", minsup: 0.75,
		resultOnly: true}); err != nil {
		t.Fatal(err)
	}
	if offline.String() != served.String() {
		t.Fatalf("served result differs from offline:\n--- offline\n%s--- served\n%s",
			offline.String(), served.String())
	}

	var jsonOut bytes.Buffer
	if err := run(&jsonOut, runOpts{serveURL: url, dsName: "fig2", minsup: 2,
		algo: "pipeline", jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(jsonOut.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, jsonOut.String())
	}
	if rep.Algorithm != "pipeline" || rep.MinSupport != 2 || rep.Transactions != 4 ||
		len(rep.Itemsets) == 0 {
		t.Fatalf("served report = %+v", rep)
	}

	var text bytes.Buffer
	if err := run(&text, runOpts{serveURL: url, dsName: "fig2", minsup: 2,
		serveStats: true}); err != nil {
		t.Fatal(err)
	}
	s := text.String()
	for _, want := range []string{"frequent itemsets", "cache:", "dataset fig2:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("served text output missing %q:\n%s", want, s)
		}
	}
}

func TestRunServeValidation(t *testing.T) {
	cases := []struct {
		name string
		o    runOpts
		want string
	}{
		{"no dataset", runOpts{serveURL: "http://x", minsup: 2}, "-dataset"},
		{"with input", runOpts{serveURL: "http://x", dsName: "d", minsup: 2,
			input: "f.dat"}, "-input"},
		{"with checkpoint", runOpts{serveURL: "http://x", dsName: "d", minsup: 2,
			checkpoint: "c.ckpt"}, "plain mining"},
		{"no minsup", runOpts{serveURL: "http://x", dsName: "d"}, "-minsup"},
		{"with workers", runOpts{serveURL: "http://127.0.0.1:1", dsName: "d", minsup: 2,
			workers: 4}, "-workers"},
		{"with devices", runOpts{serveURL: "http://127.0.0.1:1", dsName: "d", minsup: 2,
			algo: "gpapriori", devices: 2}, "-devices"},
		{"with cpushare", runOpts{serveURL: "http://127.0.0.1:1", dsName: "d", minsup: 2,
			algo: "gpapriori", cpuShare: 0.25}, "-cpushare"},
		{"with faults", runOpts{serveURL: "http://127.0.0.1:1", dsName: "d", minsup: 2,
			algo: "gpapriori", faults: "dev0:dead@gen2"}, "-faults"},
		{"with another engine", runOpts{serveURL: "http://127.0.0.1:1", dsName: "d", minsup: 2,
			algo: "goethals"}, "-algo goethals"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(&out, c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
