package eclat

import (
	"testing"

	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

func TestMatchesOracleFigure2(t *testing.T) {
	db := gen.Small()
	for _, minSup := range []int{1, 2, 3, 4} {
		want := oracle.Mine(db, minSup)
		for _, mode := range []Mode{Tidsets, Diffsets} {
			got, err := Mine(db, minSup, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%v minsup=%d: diff %v", mode, minSup, got.Diff(want))
			}
		}
	}
}

func TestMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db := gen.Random(70, 12, 0.35, seed)
		want := oracle.Mine(db, 6)
		for _, mode := range []Mode{Tidsets, Diffsets} {
			got, err := Mine(db, 6, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d %v: diff %v", seed, mode, got.Diff(want))
			}
		}
	}
}

func TestModesAgreeOnDenseDB(t *testing.T) {
	cfg := gen.Chess()
	cfg.NumTrans = 150
	db := gen.AttributeValue(cfg)
	minSup := db.AbsoluteSupport(0.85)
	a, err := Mine(db, minSup, Tidsets)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(db, minSup, Diffsets)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("modes disagree: %v", a.Diff(b))
	}
	if a.Len() == 0 {
		t.Fatal("dense DB yielded nothing at 85% support")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Mine(gen.Small(), 0, Tidsets); err == nil {
		t.Fatal("minSupport=0 accepted")
	}
}

func TestModeString(t *testing.T) {
	if Tidsets.String() != "tidsets" || Diffsets.String() != "diffsets" {
		t.Fatal("mode names wrong")
	}
}
