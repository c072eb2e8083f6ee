package cluster

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"gpapriori/internal/apriori"
	"gpapriori/internal/checkpoint"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

var errCrash = errors.New("simulated master crash")

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

// crashAfter wraps a wired config's hook so the master "crashes" right
// after the generation-g snapshot is durable.
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

// TestClusterCheckpointResume: a master crash at a generation boundary is
// survivable — a restarted cluster with the same config fast-forwards from
// the checkpoint and finishes with the oracle result.
func TestClusterCheckpointResume(t *testing.T) {
	db := gen.Random(200, 16, 0.4, 5)
	minSup := 8
	path := filepath.Join(t.TempDir(), "ck")

	m, err := New(db, Config{Nodes: 3, GPUsPerNode: 1, Kernel: smallKernel()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mine(minSup, crashAfter(t, path, db, minSup, 2)); !errors.Is(err, errCrash) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if s, err := checkpoint.Load(path); err != nil || s.Gen != 2 {
		t.Fatalf("durable checkpoint after crash: gen=%v err=%v", s.Gen, err)
	}

	m2, err := New(db, Config{Nodes: 3, GPUsPerNode: 1, Kernel: smallKernel()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Mine(minSup, wired(t, path, db, minSup))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Mine(db, minSup)
	if !rep.Result.Equal(want) {
		t.Errorf("resumed cluster run differs from oracle:\n%s",
			strings.Join(rep.Result.Diff(want), "\n"))
	}
}
