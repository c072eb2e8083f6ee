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

// TestClusterBoundariesCarryEachItemsetOnce: the simulated cluster,
// fresh and resumed from each of its boundaries, hands the boundary
// hook each frequent itemset exactly once: the boundary at gen carries
// the itemsets of length in (previous boundary, gen], a resumed run's
// first boundary its resume point too, and their union is the result.
func TestClusterBoundariesCarryEachItemsetOnce(t *testing.T) {
	db := gen.Random(200, 16, 0.4, 5)
	minSup := 8
	want := oracle.Mine(db, minSup)
	type boundary struct {
		gen   int
		delta *dataset.ResultSet
	}
	mine := func(resume *apriori.Resume) []boundary {
		t.Helper()
		m, err := New(db, Config{Nodes: 3, GPUsPerNode: 1, Kernel: smallKernel()})
		if err != nil {
			t.Fatal(err)
		}
		var got []boundary
		cfg := apriori.Config{Resume: resume, Checkpoint: func(gen int, rs *dataset.ResultSet) error {
			got = append(got, boundary{gen, rs})
			return nil
		}}
		rep, err := m.Mine(minSup, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("run differs from oracle:\n%s", strings.Join(rep.Result.Diff(want), "\n"))
		}
		prev := 0
		union := &dataset.ResultSet{}
		for _, b := range got {
			inRange := &dataset.ResultSet{}
			for _, s := range want.Sets {
				if len(s.Items) > prev && len(s.Items) <= b.gen {
					inRange.Add(s.Items, s.Support)
				}
			}
			if b.gen <= prev || !b.delta.Equal(inRange) {
				t.Fatalf("boundary %d after %d carries %d itemsets, want the %d of length in (%d, %d]",
					b.gen, prev, b.delta.Len(), inRange.Len(), prev, b.gen)
			}
			union.Sets = append(union.Sets, b.delta.Sets...)
			prev = b.gen
		}
		if !union.Equal(want) {
			t.Fatalf("the boundaries carry %d itemsets, the result has %d", union.Len(), want.Len())
		}
		return got
	}
	fresh := mine(nil)
	if len(fresh) < 2 {
		t.Fatalf("only %d boundaries; the fixture should give at least two", len(fresh))
	}
	union := &dataset.ResultSet{}
	for _, b := range fresh {
		union.Sets = append(union.Sets, b.delta.Sets...)
		point := &dataset.ResultSet{Sets: append([]dataset.Itemset(nil), union.Sets...)}
		mine(&apriori.Resume{Gen: b.gen, Frequent: point})
	}
}
