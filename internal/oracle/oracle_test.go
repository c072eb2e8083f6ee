package oracle

import (
	"testing"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
)

func TestMineFigure2(t *testing.T) {
	db := gen.Small()
	rs := Mine(db, 4)
	rs.Sort()
	// Support-4 itemsets of Figure 2: {3}, {4}, {3,4}.
	if rs.Len() != 3 {
		t.Fatalf("minsup=4: %d itemsets, want 3: %v", rs.Len(), rs.Sets)
	}
	keys := []string{"3", "4", "3 4"}
	for i, k := range keys {
		if rs.Sets[i].Key() != k {
			t.Fatalf("sets = %v, want keys %v", rs.Sets, keys)
		}
	}
}

func TestMineSupportsAreExact(t *testing.T) {
	db := gen.Small()
	rs := Mine(db, 1)
	for _, s := range rs.Sets {
		want := 0
		for _, tr := range db.Transactions() {
			if tr.ContainsAll(s.Items) {
				want++
			}
		}
		if s.Support != want {
			t.Fatalf("itemset %v support %d, want %d", s.Items, s.Support, want)
		}
	}
}

func TestMineMinsupOne(t *testing.T) {
	// Singleton DB: all non-empty subsets of the single transaction.
	db := dataset.New([][]dataset.Item{{0, 1, 2}})
	rs := Mine(db, 1)
	if rs.Len() != 7 {
		t.Fatalf("found %d itemsets, want 2^3-1=7", rs.Len())
	}
}

func TestMineThresholdAboveDB(t *testing.T) {
	db := gen.Small()
	if rs := Mine(db, 5); rs.Len() != 0 {
		t.Fatalf("minsup above DB size found %d sets", rs.Len())
	}
}
