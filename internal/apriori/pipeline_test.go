package apriori

import (
	"context"
	"strings"
	"testing"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/vertical"
)

// cacheBudgets lists the cross-generation cache budgets the
// equivalence tests sweep over p: the derived default, room for two
// class vectors (cached and rematerialized families mix), and none
// (every family counting generation 3 or later rematerializes its
// intersection).
func cacheBudgets(p *Pipeline) []int64 {
	vec := int64(bitset.AlignedWords(p.v.NumTrans) * 8)
	return []int64{p.cacheBudget, 2 * vec, 0}
}

func TestPipelineCacheBudgetIsFirstGeneration(t *testing.T) {
	for _, db := range []*dataset.DB{gen.Small(), gen.Random(150, 12, 0.5, 3)} {
		p := NewPipeline(db, PipelineOptions{})
		if want := vertical.EstimateBitsetBytes(db); p.cacheBudget != want {
			t.Fatalf("cache budget %d, want the first-generation bitsets' %d bytes", p.cacheBudget, want)
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
				p := NewPipeline(db, PipelineOptions{Workers: workers})
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
	p := NewPipeline(db, PipelineOptions{Workers: 4})
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
		p := NewPipeline(db, PipelineOptions{Workers: 3})
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

func TestPipelineMaxCandidatesGuard(t *testing.T) {
	db := gen.Random(60, 14, 0.7, 6)
	p := NewPipeline(db, PipelineOptions{Workers: 4})
	_, err := p.Mine(1, Config{MaxCandidates: 3})
	if err == nil {
		t.Fatal("expected candidate-explosion error")
	}
	if !strings.Contains(err.Error(), "candidates") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPipelineCancellation(t *testing.T) {
	db := gen.Random(300, 20, 0.6, 7)
	p := NewPipeline(db, PipelineOptions{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.MineContext(ctx, 2, Config{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPipelineMinSupportValidation(t *testing.T) {
	db := gen.Small()
	p := NewPipeline(db, PipelineOptions{})
	if _, err := p.Mine(0, Config{}); err == nil {
		t.Fatal("expected minsup validation error")
	}
}

// TestPipelineRepeatedRuns checks a Pipeline instance is reusable: two
// runs at different thresholds each match the level-wise driver.
func TestPipelineRepeatedRuns(t *testing.T) {
	db := gen.Random(150, 12, 0.5, 8)
	p := NewPipeline(db, PipelineOptions{Workers: 4})
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
