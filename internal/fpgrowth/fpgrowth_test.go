package fpgrowth

import (
	"testing"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

func TestMatchesOracleFigure2(t *testing.T) {
	db := gen.Small()
	for _, minSup := range []int{1, 2, 3, 4} {
		want := oracle.Mine(db, minSup)
		got, err := Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("minsup=%d: got %d sets want %d\ndiff: %v",
				minSup, got.Len(), want.Len(), got.Diff(want))
		}
	}
}

func TestMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db := gen.Random(70, 12, 0.35, seed)
		want := oracle.Mine(db, 6)
		got, err := Mine(db, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: diff %v", seed, got.Diff(want))
		}
	}
}

func TestMatchesOracleDense(t *testing.T) {
	cfg := gen.Chess()
	cfg.NumTrans = 60
	db := gen.AttributeValue(cfg)
	minSup := db.AbsoluteSupport(0.9)
	want := oracle.Mine(db, minSup)
	got, err := Mine(db, minSup)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("dense diff: %v", got.Diff(want))
	}
}

func TestSinglePathShortcut(t *testing.T) {
	// A DB whose FP-tree is one chain: nested itemsets.
	db := dataset.New([][]dataset.Item{
		{1}, {1, 2}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3},
	})
	want := oracle.Mine(db, 2)
	got, err := Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("single-path diff: %v", got.Diff(want))
	}
}

func TestInfrequentMidPathItemFiltered(t *testing.T) {
	// Item 5 is infrequent and sits between frequent items in rank order;
	// conditional trees must re-filter, not truncate.
	db := dataset.New([][]dataset.Item{
		{1, 2, 3}, {1, 5, 3}, {1, 2, 3}, {1, 2}, {3, 2},
	})
	want := oracle.Mine(db, 3)
	got, err := Mine(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("diff: %v", got.Diff(want))
	}
}

func TestEmptyAndTrivial(t *testing.T) {
	db := dataset.New([][]dataset.Item{{0}, {1}})
	got, err := Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("found %d sets in support-1 DB at minsup 2", got.Len())
	}
}

func TestValidation(t *testing.T) {
	if _, err := Mine(gen.Small(), 0); err == nil {
		t.Fatal("minSupport=0 accepted")
	}
}
