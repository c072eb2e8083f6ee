package gpapriori

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestPropertyAllMinersAgree is the repository's central correctness
// property: on randomized databases and thresholds, every algorithm —
// GPU-simulated, serial CPU, parallel CPU, depth-first, pattern-growth —
// returns exactly the same frequent itemsets with the same supports.
func TestPropertyAllMinersAgree(t *testing.T) {
	type params struct {
		Seed   int64
		Items  uint8
		Trans  uint8
		MinSup uint8
	}
	f := func(p params) bool {
		items := 4 + int(p.Items)%12  // 4..15 items
		trans := 20 + int(p.Trans)%60 // 20..79 transactions
		minSup := 2 + int(p.MinSup)%(trans/3)
		rng := rand.New(rand.NewSource(p.Seed))
		rows := make([][]Item, trans)
		for i := range rows {
			for j := 0; j < items; j++ {
				if rng.Intn(3) == 0 {
					rows[i] = append(rows[i], Item(j))
				}
			}
		}
		db := NewDatabase(rows)
		if db.Len() == 0 {
			return true
		}
		var ref *Result
		for _, algo := range Algorithms() {
			res, err := Mine(db, Config{Algorithm: algo, MinSupport: minSup, BlockSize: 32})
			if err != nil {
				t.Logf("%s: %v", algo, err)
				return false
			}
			if ref == nil {
				ref = res
				continue
			}
			if !sameItemsets(ref.Itemsets, res.Itemsets) {
				t.Logf("%s disagrees with %s (minSup=%d, %d trans, %d items)",
					algo, ref.Algorithm, minSup, trans, items)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRulesSound checks that generated rules always satisfy their
// own reported measures: confidence ≥ threshold and consistency between
// support, confidence and lift.
func TestPropertyRulesSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]Item, 60)
		for i := range rows {
			for j := 0; j < 8; j++ {
				if rng.Intn(2) == 0 {
					rows[i] = append(rows[i], Item(j))
				}
			}
		}
		db := NewDatabase(rows)
		if db.Len() == 0 {
			return true
		}
		res, err := Mine(db, Config{Algorithm: AlgoFPGrowth, MinSupport: 5})
		if err != nil {
			return false
		}
		rules, err := GenerateRules(res, db, 0.5)
		if err != nil {
			return false
		}
		for _, r := range rules {
			if r.Confidence < 0.5-1e-12 || r.Confidence > 1+1e-12 {
				return false
			}
			if r.Support <= 0 || r.Lift <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func sameItemsets(a, b []Itemset) bool {
	return slices.EqualFunc(a, b, func(x, y Itemset) bool {
		return x.Support == y.Support && slices.Equal(x.Items, y.Items)
	})
}
