package apriori

import (
	"context"
	"sync"
	"testing"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/vertical"
)

// cacheBudgets lists the cross-generation cache budgets the
// equivalence tests sweep over p: the derived default (a negative
// override, so each run's budget is its first-generation slab), room
// for two class vectors (cached and rematerialized families mix), and
// none (every family counting generation 3 or later rematerializes its
// intersection).
func cacheBudgets(p *Pipeline) []int64 {
	vec := int64(bitset.AlignedWords(p.db.Len()) * 8)
	return []int64{-1, 2 * vec, 0}
}

// slabBytes is the size of a run's first generation, measured from the
// vectors it built.
func slabBytes(r *pipeRun) int64 {
	var n int64
	for _, v := range r.vecs {
		if v != nil {
			n += int64(v.WordCount() * 8)
		}
	}
	return n
}

// TestPipelineCacheBudgetIsFirstGeneration: a run's first generation
// holds a vector for each item frequent at its support and none for
// any other, and its cache budget is that slab's size — at minsup 1,
// a typical support, and one no item reaches.
func TestPipelineCacheBudgetIsFirstGeneration(t *testing.T) {
	for _, db := range []*dataset.DB{gen.Small(), gen.Random(150, 12, 0.5, 3)} {
		supports := db.ItemSupports()
		p := NewPipeline(db, supports, PipelineOptions{})
		for _, minSup := range []int{1, db.AbsoluteSupport(0.5), db.Len() + 1} {
			r, err := p.newRun(context.Background(), minSup, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for item, v := range r.vecs {
				if (v != nil) != (supports[item] >= minSup) {
					t.Fatalf("minsup %d: item %d (support %d) has vector %v", minSup, item, supports[item], v != nil)
				}
			}
			want := vertical.EstimateFrequentBytes(db, supports, minSup)
			if got := slabBytes(r); got != want || r.budget != want {
				t.Fatalf("minsup %d: slab %d bytes, cache budget %d, want the frequent items' %d bytes",
					minSup, got, r.budget, want)
			}
			if _, err := r.mine(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPipelineMatchesLevelWise checks the pooled pipeline against the
// level-wise driver across worker counts and cache budgets.
func TestPipelineMatchesLevelWise(t *testing.T) {
	dbs := map[string]*dataset.DB{
		"small":  gen.Small(),
		"rand-a": gen.Random(150, 12, 0.5, 3),
		"rand-b": gen.Random(80, 16, 0.35, 4),
	}
	for name, db := range dbs {
		for _, minSup := range []int{2, 8} {
			want, err := Mine(db, minSup, NewCPUBitset(db, bitset.PopcountHardware), Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: workers})
				for _, budget := range cacheBudgets(p) {
					p.cacheBudget = budget
					got, err := p.Mine(minSup, Config{})
					if err != nil {
						t.Fatalf("%s minsup=%d workers=%d budget=%d: %v", name, minSup, workers, budget, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s minsup=%d workers=%d budget=%d diff: %v",
							name, minSup, workers, budget, got.Diff(want))
					}
				}
			}
		}
	}
}

func TestPipelineDenseChessShape(t *testing.T) {
	cfg := gen.Chess()
	cfg.NumTrans = 200
	db := gen.AttributeValue(cfg)
	minSup := db.AbsoluteSupport(0.85)
	want, err := Mine(db, minSup, NewCPUBitset(db, bitset.PopcountHardware), Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 4})
	for _, budget := range cacheBudgets(p) {
		p.cacheBudget = budget
		got, err := p.Mine(minSup, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("budget=%d: pipeline diff on dense data: %v", budget, got.Diff(want))
		}
	}
}

func TestPipelineMaxLen(t *testing.T) {
	db := gen.Random(100, 12, 0.5, 5)
	for _, maxLen := range []int{1, 2, 3} {
		want, err := Mine(db, 5, NewCPUBitset(db, bitset.PopcountHardware), Config{MaxLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 3})
		got, err := p.Mine(5, Config{MaxLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("maxLen=%d diff: %v", maxLen, got.Diff(want))
		}
		if got.MaxLen() > maxLen {
			t.Fatalf("maxLen=%d: result contains length-%d itemset", maxLen, got.MaxLen())
		}
	}
}

func TestPipelineCancellation(t *testing.T) {
	db := gen.Random(300, 20, 0.6, 7)
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.MineContext(ctx, 2, Config{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPipelineCancelledAtBoundary: a run cancelled from its first
// boundary hook reports no later boundary and returns context.Canceled,
// even when its workers have already finished and only boundaries are
// left to report.
func TestPipelineCancelledAtBoundary(t *testing.T) {
	db := gen.Random(300, 20, 0.6, 7)
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var gens []int
	cfg := Config{Checkpoint: func(gen int, _ *dataset.ResultSet) error {
		gens = append(gens, gen)
		cancel()
		return nil
	}}
	if _, err := p.MineContext(ctx, 2, cfg); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(gens) != 1 {
		t.Fatalf("boundaries reported after the cancel: %v", gens)
	}
}

func TestPipelineMinSupportValidation(t *testing.T) {
	db := gen.Small()
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{})
	if _, err := p.Mine(0, Config{}); err == nil {
		t.Fatal("expected minsup validation error")
	}
}

// TestPipelineRepeatedRuns checks a Pipeline instance is reusable: two
// runs at different thresholds each match the level-wise driver.
func TestPipelineRepeatedRuns(t *testing.T) {
	db := gen.Random(150, 12, 0.5, 8)
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 4})
	for _, minSup := range []int{3, 12, 40} {
		want, err := Mine(db, minSup, NewCPUBitset(db, bitset.PopcountHardware), Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Mine(minSup, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("minsup=%d diff: %v", minSup, got.Diff(want))
		}
	}
}

// TestPipelineConcurrentMinesAtDifferentSupports: each run transposes
// its own first generation, so concurrent mines of one Pipeline at
// different supports, whose frequent items differ, each match the
// level-wise driver.
func TestPipelineConcurrentMinesAtDifferentSupports(t *testing.T) {
	db := gen.Random(150, 12, 0.5, 8)
	p := NewPipeline(db, db.ItemSupports(), PipelineOptions{Workers: 2})
	minSups := []int{3, 12, 40, 70}
	want := make([]*dataset.ResultSet, len(minSups))
	for i, minSup := range minSups {
		var err error
		if want[i], err = Mine(db, minSup, NewCPUBitset(db, bitset.PopcountHardware), Config{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, minSup := range minSups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Mine(minSup, Config{})
			if err != nil {
				t.Errorf("minsup=%d: %v", minSup, err)
				return
			}
			if !got.Equal(want[i]) {
				t.Errorf("minsup=%d diff: %v", minSup, got.Diff(want[i]))
			}
		}()
	}
	wg.Wait()
}
