package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"gpapriori/internal/apriori"
	"gpapriori/internal/checkpoint"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/oracle"
)

var errCrash = errors.New("simulated crash")

// wired returns an apriori.Config that checkpoints every generation to
// path and resumes from it.
func wired(t *testing.T, path string, db *dataset.DB, minSup int) apriori.Config {
	t.Helper()
	var cfg apriori.Config
	spec := checkpoint.Spec{Path: path, ResumeFrom: path}
	if err := checkpoint.Wire(spec, checkpoint.Key(checkpoint.Content(db), minSup, 0), minSup, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// crashAfter wraps a wired config's hook so the run "crashes" (errors
// out) right after the generation-g snapshot hits disk — the durable
// state a SIGKILL at that instant would leave behind.
func crashAfter(t *testing.T, path string, db *dataset.DB, minSup, g int) apriori.Config {
	t.Helper()
	cfg := wired(t, path, db, minSup)
	inner := cfg.Checkpoint
	cfg.Checkpoint = func(gen int, rs *dataset.ResultSet) error {
		if err := inner(gen, rs); err != nil {
			return err
		}
		if gen == g {
			return errCrash
		}
		return nil
	}
	return cfg
}

// TestMinerCheckpointResume is the device-path resume-equivalence
// property: crash a checkpointed run at a generation boundary, restart
// with the same config, and the combined result must be bit-identical
// to the oracle (and therefore to an uninterrupted run).
func TestMinerCheckpointResume(t *testing.T) {
	db := gen.Random(120, 14, 0.4, 9)
	minSup := 6
	path := filepath.Join(t.TempDir(), "ck")

	m, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mine(minSup, crashAfter(t, path, db, minSup, 2)); !errors.Is(err, errCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	s, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("no durable checkpoint after crash: %v", err)
	}
	if s.Gen != 2 {
		t.Fatalf("checkpoint holds gen %d, want 2", s.Gen)
	}

	// Restart: a fresh miner with the same config fast-forwards.
	m2, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Mine(minSup, wired(t, path, db, minSup))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Mine(db, minSup)
	if !rep.Result.Equal(want) {
		t.Errorf("resumed run differs from oracle:\n%s",
			strings.Join(rep.Result.Diff(want), "\n"))
	}
	// The resumed run must not have recounted generation 2.
	if rep.Generations >= len(want.CountBySize())-1 {
		t.Errorf("resumed run counted %d generations — it did not fast-forward", rep.Generations)
	}
}

// TestMinerCheckpointResumeUnderFaults: checkpointing composes with fault
// injection — a run that crashed mid-recovery resumes to the oracle result.
func TestMinerCheckpointResumeUnderFaults(t *testing.T) {
	db := gen.Random(120, 16, 0.4, 6)
	minSup := 6
	path := filepath.Join(t.TempDir(), "ck")
	opt := Options{
		Faults: []DeviceFault{{Device: 0, Gen: 2, Kind: gpusim.FaultKernelFail}},
	}
	m, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mine(minSup, crashAfter(t, path, db, minSup, 2)); !errors.Is(err, errCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	m2, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Mine(minSup, wired(t, path, db, minSup))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Mine(db, minSup)
	if !rep.Result.Equal(want) {
		t.Errorf("faulted resume differs from oracle:\n%s",
			strings.Join(rep.Result.Diff(want), "\n"))
	}
}

// TestMultiCheckpointResume: a device pool honors the same crash/resume
// contract.
func TestMultiCheckpointResume(t *testing.T) {
	db := gen.Random(200, 18, 0.4, 3)
	minSup := 8
	path := filepath.Join(t.TempDir(), "ck")

	m, err := New(db, Options{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mine(minSup, crashAfter(t, path, db, minSup, 2)); !errors.Is(err, errCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	m2, err := New(db, Options{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Mine(minSup, wired(t, path, db, minSup))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Mine(db, minSup)
	if !rep.Result.Equal(want) {
		t.Errorf("multi-device resume differs from oracle:\n%s",
			strings.Join(rep.Result.Diff(want), "\n"))
	}
}
