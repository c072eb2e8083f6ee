package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempFile writes content to a temp file and returns its path.
func writeTempFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const figure2Dat = "1 2 3 4 5\n2 3 4 5 6\n3 4 6 7\n1 3 4 5 6\n"

func TestRunFIMIInput(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	var out bytes.Buffer
	err := run(&out, runOpts{input: path, minsup: 0.75, algo: "gpapriori", top: 0})
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "11 frequent itemsets") {
		t.Fatalf("output:\n%s", s)
	}
	if !strings.Contains(s, "[3 4] : 4") {
		t.Fatalf("missing itemset line:\n%s", s)
	}
}

func TestRunNamedInputWithRules(t *testing.T) {
	path := writeTempFile(t, "baskets.txt", "bread milk\nbread milk\nmilk eggs\nbread\n")
	var out bytes.Buffer
	err := run(&out, runOpts{named: path, minsup: 0.5, algo: "fpgrowth", minConf: 0.6, top: 0})
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "bread + milk") {
		t.Fatalf("named itemsets missing:\n%s", s)
	}
	if !strings.Contains(s, "=>") {
		t.Fatalf("rules missing:\n%s", s)
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	var out bytes.Buffer
	err := run(&out, runOpts{input: path, minsup: 2, algo: "eclat", jsonOut: true})
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Algorithm != "eclat" || rep.MinSupport != 2 || len(rep.Itemsets) == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunDatasetSource(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, runOpts{dsName: "chess", scale: 0.02, minsup: 0.9, algo: "cpu-bitset", quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "frequent itemsets") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunValidation(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	cases := []struct {
		name string
		o    runOpts
		want string
	}{
		{"no source", runOpts{}, "need exactly one"},
		{"two sources", runOpts{input: "a", dsName: "chess"}, "need exactly one"},
		{"missing minsup", runOpts{input: path}, "-minsup"},
		{"unknown algorithm", runOpts{input: path, minsup: 2, algo: "nope"}, "unknown algorithm"},
		{"missing file", runOpts{input: filepath.Join(t.TempDir(), "missing.dat"), minsup: 2}, "missing.dat"},
		// A fractional count must not be rounded down to 2, offline or
		// served; the served case fails before it dials.
		{"fractional count", runOpts{input: path, minsup: 2.9}, "-minsup 2.9"},
		{"fractional count served", runOpts{serveURL: "http://127.0.0.1:1", dsName: "d", minsup: 2.9}, "-minsup 2.9"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(&out, c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestRunMultiDeviceFlags(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	var out bytes.Buffer
	err := run(&out, runOpts{input: path, minsup: 2, algo: "gpapriori", devices: 2, cpuShare: 0.3, quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "31 frequent itemsets") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunWithFaults(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	var clean, faulty bytes.Buffer
	if err := run(&clean, runOpts{input: path, minsup: 0.75, algo: "gpapriori", quiet: true}); err != nil {
		t.Fatal(err)
	}
	err := run(&faulty, runOpts{
		input: path, minsup: 0.75, algo: "gpapriori", quiet: true,
		faults: "dev0:kernel-fail@gen2",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := faulty.String()
	if !strings.Contains(s, "11 frequent itemsets") {
		t.Fatalf("fault run changed the result:\n%s", s)
	}
	if !strings.Contains(s, "faults: injected=1 (kernel=1") {
		t.Fatalf("missing fault stats line:\n%s", s)
	}
	if strings.Contains(clean.String(), "faults:") {
		t.Fatalf("clean run printed fault stats:\n%s", clean.String())
	}
}

func TestRunWithFaultsJSON(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	var out bytes.Buffer
	err := run(&out, runOpts{
		input: path, minsup: 0.75, algo: "gpapriori", jsonOut: true,
		faults: "dev0:dead@gen2",
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Itemsets) != 11 {
		t.Fatalf("fault run found %d itemsets, want 11", len(rep.Itemsets))
	}
	if rep.Faults == nil {
		t.Fatal("fault_stats missing from JSON")
	}
	if rep.Faults.DegradedCandidates == 0 {
		t.Fatalf("dead-only-device run did not degrade to CPU: %+v", rep.Faults)
	}
	if len(rep.Faults.DeadDevices) != 1 || rep.Faults.DeadDevices[0] != 0 {
		t.Fatalf("dead_devices = %v, want [0]", rep.Faults.DeadDevices)
	}
}

func TestRunRejectsBadFaultSpec(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	var out bytes.Buffer
	err := run(&out, runOpts{
		input: path, minsup: 0.75, algo: "gpapriori",
		faults: "dev0:explode@gen2",
	})
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown-kind parse failure", err)
	}
}

// TestRunCheckpointResume: mining with -checkpoint leaves a resumable
// snapshot, and -resume reproduces the identical output.
func TestRunCheckpointResume(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var first, second bytes.Buffer
	base := runOpts{input: path, minsup: 2, algo: "cpu-bitset", top: 0, checkpoint: ckpt}
	if err := run(&first, base); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	resumed := base
	resumed.resume = true
	if err := run(&second, resumed); err != nil {
		t.Fatal(err)
	}
	// Everything except the host-time line must match bit for bit.
	strip := func(s string) string {
		var keep []string
		for _, l := range strings.Split(s, "\n") {
			if !strings.HasPrefix(l, "host time:") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(first.String()) != strip(second.String()) {
		t.Fatalf("resume changed the output:\n--- first\n%s\n--- resumed\n%s", first.String(), second.String())
	}
}

func TestRunCheckpointValidation(t *testing.T) {
	path := writeTempFile(t, "fig2.dat", figure2Dat)
	var out bytes.Buffer
	if err := run(&out, runOpts{input: path, minsup: 2, resume: true}); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}
