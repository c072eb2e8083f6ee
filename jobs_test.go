package gpapriori

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gpapriori/internal/checkpoint"
	"gpapriori/internal/dataset"
	"gpapriori/internal/vertical"
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

// TestCheckpointIdentityIsResultKey: the snapshot a checkpointed run
// writes carries ResultFingerprint's key for the same database and
// config, so the result cache and the checkpoint share one identity.
func TestCheckpointIdentityIsResultKey(t *testing.T) {
	db := jobsDB(7)
	cfg := Config{MinSupport: 6, MaxLen: 3, Checkpoint: filepath.Join(t.TempDir(), "run.ckpt")}
	if _, err := MineContext(context.Background(), db, cfg); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := ResultFingerprint(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint != key {
		t.Fatalf("snapshot fingerprint %016x, ResultFingerprint %016x", snap.Fingerprint, key)
	}
}

// legacyFingerprint is the run identity checkpoints carried while it was
// one FNV-1a stream over the database counts, the run parameters and
// every transaction, hashed on every run.
func legacyFingerprint(db *dataset.DB, minSupport, maxLen int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(db.Len()))
	put(uint64(db.NumItems()))
	put(uint64(minSupport))
	put(uint64(maxLen))
	for _, tr := range db.Transactions() {
		put(uint64(len(tr)))
		for _, it := range tr {
			put(uint64(it))
		}
	}
	return h.Sum64()
}

// TestResumeRefusesLegacyFingerprint: a checkpoint identified the
// legacy way belongs to no run any more, so resuming from it is a typed
// mismatch rather than a silent reuse.
func TestResumeRefusesLegacyFingerprint(t *testing.T) {
	db := jobsDB(7)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{MinSupport: 6, Checkpoint: path}
	if _, err := Mine(db, cfg); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Fingerprint = legacyFingerprint(db.db, cfg.MinSupport, cfg.MaxLen)
	if err := checkpoint.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	_, err = Mine(db, Config{MinSupport: 6, ResumeFrom: path})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resuming a legacy checkpoint: %v, want ErrCheckpointMismatch", err)
	}
}

// TestDatasetFingerprintPinned pins one small database's content
// fingerprint. It is the cluster's placement key, so a change of value
// would move every dataset to other owners. Callers racing on the
// database's first use all get the pinned value.
func TestDatasetFingerprintPinned(t *testing.T) {
	db := NewDatabase([][]Item{{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}})
	const want = 0x890b6ca53ecb4c44
	got := make([]uint64, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = DatasetFingerprint(db)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Errorf("caller %d: DatasetFingerprint = %#016x, %v; want %#016x", i, got[i], errs[i], uint64(want))
		}
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

// TestEstimateMemoryBytesIsPipelineFootprint: a served job always mines
// with the pipeline, so its estimate is the pipeline's first-generation
// slab — a vector for each item frequent at the job's support, and
// none for any other — plus its class-vector cache, whose budget is the
// same slab. At minsup 1 every item is frequent and the estimate is the
// whole layout's; where no item is, it is zero.
func TestEstimateMemoryBytesIsPipelineFootprint(t *testing.T) {
	db := jobsDB(7)
	supports := db.db.ItemSupports()
	for _, minSup := range []int{1, db.AbsoluteSupport(0.4), db.Len() + 1} {
		var slab int64
		for _, v := range vertical.FrequentBitsets(db.db, supports, minSup) {
			if v != nil {
				slab += int64(v.WordCount() * 8)
			}
		}
		if est := EstimateMemoryBytes(db, minSup); est != 2*slab {
			t.Errorf("minsup %d: estimate %d, want the frequent slab plus its cache budget, 2×%d", minSup, est, slab)
		}
	}
	if all, est := vertical.EstimateBitsetBytes(db.db), EstimateMemoryBytes(db, 1); est != 2*all {
		t.Errorf("minsup 1: estimate %d, want the whole layout's 2×%d", est, all)
	}
	if est := EstimateMemoryBytes(db, db.Len()+1); est != 0 {
		t.Errorf("no frequent item: estimate %d, want 0", est)
	}
}

// TestResumeRefusesItemWithoutVector: a checkpoint that carries the
// run's key but names an item the database does not hold frequent at
// the run's support — past its items, or infrequent — is a typed
// mismatch for every algorithm with boundaries, not a panicking counter
// or pipeline worker, nor a result holding an itemset no row supports.
func TestResumeRefusesItemWithoutVector(t *testing.T) {
	var rows [][]Item
	for i := 0; i < 5; i++ {
		rows = append(rows, []Item{0, 1, 2}, []Item{0, 1})
	}
	rows = append(rows, []Item{3})
	db := NewDatabase(rows)
	for _, algo := range Algorithms() {
		if !algo.HasBoundaries() {
			continue
		}
		for _, extra := range []Item{Item(db.NumItems() + 5), 3} {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			cfg := Config{Algorithm: algo, MinSupport: 3, Checkpoint: path}
			if _, err := Mine(db, cfg); err != nil {
				t.Fatal(err)
			}
			snap, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			snap.Frequent.Add([]dataset.Item{extra}, 99)
			if err := checkpoint.Save(path, snap); err != nil {
				t.Fatal(err)
			}
			cfg.ResumeFrom = path
			if _, err := Mine(db, cfg); !errors.Is(err, ErrCheckpointMismatch) {
				t.Errorf("%s resuming a point naming item %d: %v, want ErrCheckpointMismatch", algo, extra, err)
			}
		}
	}
}

// generationLog records what a run's OnGeneration calls carried.
type generationLog struct {
	gens   []int
	deltas [][]Itemset
}

func (l *generationLog) add(gen int, frequent []Itemset) {
	l.gens = append(l.gens, gen)
	l.deltas = append(l.deltas, frequent)
}

// check verifies the boundary contract against the run's result: the
// generations increase, and each call at gen carries exactly the
// result's itemsets of length in (previous call's gen, gen], so the
// calls carry each itemset once and their union is the result.
func (l *generationLog) check(t *testing.T, label string, result []Itemset) {
	t.Helper()
	if len(l.gens) == 0 {
		t.Fatalf("%s: no generation reported", label)
	}
	prev := 0
	var union []Itemset
	for i, g := range l.gens {
		if g <= prev {
			t.Fatalf("%s: generations %v do not increase", label, l.gens)
		}
		if want := lengthsIn(result, prev, g); !sameItemsets(l.deltas[i], want) {
			t.Fatalf("%s: generation %d carried %d itemsets, want the %d of length in (%d, %d]",
				label, g, len(l.deltas[i]), len(want), prev, g)
		}
		union = append(union, l.deltas[i]...)
		prev = g
	}
	if !sameItemsets(union, result) {
		t.Fatalf("%s: %d itemsets streamed, result has %d", label, len(union), len(result))
	}
}

// lengthsIn returns the itemsets of a canonical slice with a length in
// (lo, hi], in order.
func lengthsIn(itemsets []Itemset, lo, hi int) []Itemset {
	var out []Itemset
	for _, s := range itemsets {
		if len(s.Items) > lo && len(s.Items) <= hi {
			out = append(out, s)
		}
	}
	return out
}

// TestBoundariesCarryEachItemsetOnce: every algorithm with boundaries,
// fresh and resumed from the checkpoint of each of its boundaries,
// hands OnGeneration each frequent itemset exactly once, a resumed
// run's first boundary carrying its resume point too; and the
// checkpoint saved at every boundary holds every itemset up to it.
func TestBoundariesCarryEachItemsetOnce(t *testing.T) {
	db := jobsDB(7)
	const minSup = 6
	for _, algo := range Algorithms() {
		if !algo.HasBoundaries() {
			continue
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "run.ckpt")
		var fresh generationLog
		var saved []string
		res, err := Mine(db, Config{Algorithm: algo, MinSupport: minSup, BlockSize: 32, Checkpoint: path,
			OnGeneration: func(gen int, frequent []Itemset) {
				fresh.add(gen, frequent)
				snap, err := checkpoint.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				var union []Itemset
				for _, d := range fresh.deltas {
					union = append(union, d...)
				}
				if snap.Gen != gen || !sameItemsets(toItemsets(snap.Frequent), union) {
					t.Fatalf("%s: the checkpoint at generation %d holds %d itemsets of gen %d, want the %d streamed",
						algo, gen, snap.Frequent.Len(), snap.Gen, len(union))
				}
				copyPath := filepath.Join(dir, fmt.Sprintf("gen%d.ckpt", gen))
				if err := checkpoint.Save(copyPath, snap); err != nil {
					t.Fatal(err)
				}
				saved = append(saved, copyPath)
			}})
		if err != nil {
			t.Fatal(err)
		}
		fresh.check(t, string(algo), res.Itemsets)
		if len(fresh.gens) < 3 {
			t.Fatalf("%s: only boundaries %v; the fixture should give at least three", algo, fresh.gens)
		}
		for i, from := range saved {
			var resumed generationLog
			label := fmt.Sprintf("%s resumed at generation %d", algo, fresh.gens[i])
			got, err := Mine(db, Config{Algorithm: algo, MinSupport: minSup, BlockSize: 32,
				ResumeFrom: from, OnGeneration: resumed.add})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !sameItemsets(got.Itemsets, res.Itemsets) {
				t.Fatalf("%s: %d itemsets, the fresh run found %d", label, got.Len(), res.Len())
			}
			resumed.check(t, label, res.Itemsets)
		}
	}
}
