package rules

import (
	"math"
	"testing"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

func mineSmall(t *testing.T, minSup int) (*dataset.ResultSet, int) {
	t.Helper()
	db := gen.Small()
	return oracle.Mine(db, minSup), db.Len()
}

func TestGenerateBasic(t *testing.T) {
	rs, n := mineSmall(t, 2)
	rules, err := Generate(rs, n, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules generated")
	}
	for _, r := range rules {
		if r.Confidence < 0.6 || r.Confidence > 1.0000001 {
			t.Fatalf("rule %v confidence out of range", r)
		}
		if r.Support <= 0 || r.Support > 1 {
			t.Fatalf("rule %v support out of range", r)
		}
		if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
			t.Fatalf("rule %v has empty side", r)
		}
	}
}

func TestConfidenceExact(t *testing.T) {
	// Figure 2 DB: support({3,4}) = 4, support({3}) = 4 → conf(3⇒4) = 1.
	rs, n := mineSmall(t, 1)
	rules, err := Generate(rs, n, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == 3 &&
			len(r.Consequent) == 1 && r.Consequent[0] == 4 {
			found = true
			if math.Abs(r.Confidence-1.0) > 1e-12 {
				t.Fatalf("conf(3⇒4) = %v, want 1", r.Confidence)
			}
			if math.Abs(r.Support-1.0) > 1e-12 {
				t.Fatalf("sup(3⇒4) = %v, want 1 (4/4 transactions)", r.Support)
			}
			if math.Abs(r.Lift-1.0) > 1e-12 {
				t.Fatalf("lift(3⇒4) = %v, want 1 (consequent universal)", r.Lift)
			}
		}
	}
	if !found {
		t.Fatal("rule 3⇒4 not generated")
	}
}

func TestLiftComputation(t *testing.T) {
	// DB where 0⇒1 has lift > 1: item 1 appears in half the DB but always
	// with 0.
	db := dataset.New([][]dataset.Item{{0, 1}, {0, 1}, {2}, {3}})
	rs := oracle.Mine(db, 1)
	rules, err := Generate(rs, db.Len(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == 0 &&
			len(r.Consequent) == 1 && r.Consequent[0] == 1 {
			// conf = 1, P(1) = 0.5 → lift = 2.
			if math.Abs(r.Lift-2.0) > 1e-12 {
				t.Fatalf("lift(0⇒1) = %v, want 2", r.Lift)
			}
			return
		}
	}
	t.Fatal("rule 0⇒1 not generated")
}

func TestAllPartitionsEnumerated(t *testing.T) {
	// A single frequent 3-itemset yields 2^3-2 = 6 rules at conf 0.
	db := dataset.New([][]dataset.Item{{0, 1, 2}, {0, 1, 2}})
	rs := oracle.Mine(db, 2)
	rules, err := Generate(rs, db.Len(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, r := range rules {
		if len(r.Antecedent)+len(r.Consequent) == 3 {
			count++
		}
	}
	if count != 6 {
		t.Fatalf("3-itemset produced %d rules, want 6", count)
	}
}

func TestMissingSubsetError(t *testing.T) {
	var rs dataset.ResultSet
	rs.Add([]dataset.Item{1, 2}, 3) // subsets {1},{2} missing
	if _, err := Generate(&rs, 10, 0.5); err == nil {
		t.Fatal("non-downward-closed input accepted")
	}
}

func TestValidation(t *testing.T) {
	rs, n := mineSmall(t, 2)
	if _, err := Generate(rs, 0, 0.5); err == nil {
		t.Fatal("numTrans=0 accepted")
	}
	if _, err := Generate(rs, n, 0); err == nil {
		t.Fatal("confidence=0 accepted")
	}
	if _, err := Generate(rs, n, 1.5); err == nil {
		t.Fatal("confidence>1 accepted")
	}
}

func TestSortOrder(t *testing.T) {
	rs, n := mineSmall(t, 1)
	rules, err := Generate(rs, n, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i-1].Confidence < rules[i].Confidence {
			t.Fatal("rules not sorted by descending confidence")
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: []dataset.Item{1, 2},
		Consequent: []dataset.Item{3},
		Support:    0.4, Confidence: 0.8, Lift: 4.0 / 3,
	}
	want := "1 2 => 3 (sup=0.40 conf=0.80 lift=1.33)"
	if got := r.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
