package gpapriori

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"gpapriori/internal/core"
)

// jobsDB builds a database big enough for a few generations but quick to
// mine.
func jobsDB(seed int64) *Database {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]Item, 120)
	for i := range rows {
		var tr []Item
		for it := Item(0); it < 12; it++ {
			if rng.Float64() < 0.4 {
				tr = append(tr, it)
			}
		}
		if len(tr) == 0 {
			tr = []Item{0}
		}
		rows[i] = tr
	}
	return NewDatabase(rows)
}

// TestPublicCheckpointResume is the end-to-end walkthrough from the
// README: mine with -checkpoint, crash, rerun the same config with
// -resume, and the result is bit-identical.
func TestPublicCheckpointResume(t *testing.T) {
	db := jobsDB(7)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	base := Config{Algorithm: AlgoCPUBitset, MinSupport: 6, Checkpoint: path}

	want, err := Mine(db, base)
	if err != nil {
		t.Fatal(err)
	}
	// The completed run's checkpoint is on disk; resuming from it redoes
	// nothing and yields the identical result.
	resumed := base
	resumed.ResumeFrom = path
	got, err := Mine(db, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("resumed run found %d sets, want %d", got.Len(), want.Len())
	}
	for i := range got.Itemsets {
		a, b := got.Itemsets[i], want.Itemsets[i]
		if a.Support != b.Support || fmt.Sprint(a.Items) != fmt.Sprint(b.Items) {
			t.Fatalf("itemset %d: %v vs %v", i, a, b)
		}
	}
}

// TestPublicResumeMissingFileStartsFresh: -resume with no checkpoint on
// disk is a fresh run, not an error.
func TestPublicResumeMissingFileStartsFresh(t *testing.T) {
	db := jobsDB(7)
	res, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6,
		ResumeFrom: filepath.Join(t.TempDir(), "missing.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("fresh run found nothing")
	}
}

// TestPublicResumeMismatchRejected: a checkpoint from a different support
// threshold is surfaced, never silently mixed in.
func TestPublicResumeMismatchRejected(t *testing.T) {
	db := jobsDB(7)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	_, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 7, ResumeFrom: path})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("want mismatch error, got %v", err)
	}
}

// TestPublicCheckpointRejectsDepthFirst: algorithms without generation
// boundaries refuse checkpointing loudly.
func TestPublicCheckpointRejectsDepthFirst(t *testing.T) {
	db := jobsDB(7)
	for _, algo := range []Algorithm{AlgoEclat, AlgoEclatDiffset, AlgoFPGrowth} {
		_, err := Mine(db, Config{Algorithm: algo, MinSupport: 6, Checkpoint: "x"})
		if err == nil || !strings.Contains(err.Error(), "cannot checkpoint") {
			t.Errorf("%s: want a cannot-checkpoint error, got %v", algo, err)
		}
	}
}

// TestPublicCheckpointGPApriori: the device path and the default
// pipeline checkpoint and resume through the same public config, and a
// checkpoint written by either resumes under the other.
func TestPublicCheckpointGPApriori(t *testing.T) {
	db := jobsDB(3)
	want, err := Mine(db, Config{Algorithm: AlgoCPUBitset, MinSupport: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]Algorithm{{AlgoGPApriori, AlgoGPApriori}, {"", ""}, {AlgoGPApriori, ""}, {"", AlgoGPApriori}} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if _, err := Mine(db, Config{Algorithm: pair[0], MinSupport: 6, Checkpoint: path}); err != nil {
			t.Fatal(err)
		}
		got, err := Mine(db, Config{Algorithm: pair[1], MinSupport: 6, Checkpoint: path, ResumeFrom: path})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Itemsets) != fmt.Sprint(want.Itemsets) {
			t.Errorf("%q resuming %q's checkpoint found %d sets, want the %d of a clean run",
				pair[1].Resolve(), pair[0].Resolve(), got.Len(), want.Len())
		}
	}
}

// TestEstimateMemoryBytesScalesWithDevices: the estimate is the bitset
// layout once per device plus clamped scratch — exactly what the miner's
// devices hold — and the pipeline is charged its bitsets plus its
// class-vector cache, which is bounded by the same bitset footprint.
func TestEstimateMemoryBytesScalesWithDevices(t *testing.T) {
	db := jobsDB(7)
	one := EstimateMemoryBytes(db, Config{Algorithm: AlgoGPApriori})
	four := EstimateMemoryBytes(db, Config{Algorithm: AlgoGPApriori, Devices: 4})
	if four != 4*one {
		t.Errorf("4-device estimate %d, want 4×%d", four, one)
	}
	for _, devices := range []int{1, 4} {
		m, err := core.New(db.db, core.Options{Devices: devices})
		if err != nil {
			t.Fatal(err)
		}
		held := int64(0)
		for _, d := range m.Devices() {
			held += int64(d.MemWords()) * 4
		}
		if est := EstimateMemoryBytes(db, Config{Algorithm: AlgoGPApriori, Devices: devices}); est != held {
			t.Errorf("%d-device estimate %d, but the miner's devices hold %d bytes", devices, est, held)
		}
	}
	cpu := EstimateMemoryBytes(db, Config{Algorithm: AlgoCPUBitset})
	if cpu >= one {
		t.Errorf("CPU estimate %d should be below the device estimate %d (no scratch copy)", cpu, one)
	}
	if cpu <= 0 {
		t.Errorf("CPU estimate %d must be positive", cpu)
	}
	pipe := EstimateMemoryBytes(db, Config{Algorithm: AlgoPipeline})
	if pipe != 2*cpu {
		t.Errorf("pipeline estimate %d, want bitsets plus cache bound 2×%d", pipe, cpu)
	}
	if def := EstimateMemoryBytes(db, Config{}); def != pipe {
		t.Errorf("default-algorithm estimate %d, want the pipeline one %d", def, pipe)
	}
}
