package eclat

import (
	"testing"

	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/oracle"
)

func TestGPUMatchesOracleFigure2(t *testing.T) {
	db := gen.Small()
	m, err := NewGPU(db, gpusim.Config{}, kernels.Options{BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, minSup := range []int{1, 2, 3, 4} {
		want := oracle.Mine(db, minSup)
		got, _, err := m.Mine(minSup)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("minsup=%d diff: %v", minSup, got.Diff(want))
		}
	}
}

func TestGPUMatchesCPUEclatRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		db := gen.Random(90, 14, 0.4, seed)
		want, err := Mine(db, 12, Diffsets)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewGPU(db, gpusim.Config{}, kernels.Options{BlockSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		got, modeled, err := m.Mine(12)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d diff: %v", seed, got.Diff(want))
		}
		if modeled.Total() <= 0 {
			t.Fatal("no modeled device time")
		}
	}
}

func TestGPUDenseAgreesWithCPU(t *testing.T) {
	cfg := gen.Chess()
	cfg.NumTrans = 150
	db := gen.AttributeValue(cfg)
	minSup := db.AbsoluteSupport(0.85)
	want, err := Mine(db, minSup, Tidsets)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewGPU(db, gpusim.Config{}, kernels.Options{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m.Mine(minSup)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("dense diff: %v", got.Diff(want))
	}
}

func TestGPUValidation(t *testing.T) {
	db := gen.Small()
	m, err := NewGPU(db, gpusim.Config{}, kernels.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Mine(0); err == nil {
		t.Fatal("minSupport=0 accepted")
	}
}

func TestGPUStatsResetBetweenRuns(t *testing.T) {
	db := gen.Random(100, 12, 0.4, 1)
	m, err := NewGPU(db, gpusim.Config{}, kernels.Options{BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := m.Mine(15)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := m.Mine(15)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("modeled time differs across identical runs: %v vs %v", a, b)
	}
}
