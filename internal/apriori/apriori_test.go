package apriori

import (
	"testing"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

// counters returns one instance of every CPU strategy over db.
func counters(db *dataset.DB) []Counter {
	return []Counter{
		NewCPUBitset(db, bitset.PopcountHardware),
		NewCPUBitset(db, bitset.PopcountTable8),
		NewBorgelt(db),
		NewBodon(db),
		NewGoethals(db),
	}
}

// TestCPUBitsetVariantsMatchOracle sweeps CPU_TEST's only variants, its
// two popcount implementations, over dense and sparse random databases
// and several thresholds against the oracle.
func TestCPUBitsetVariantsMatchOracle(t *testing.T) {
	dbs := map[string]*dataset.DB{
		"small":  gen.Small(),
		"rand-a": gen.Random(120, 14, 0.45, 1),
		"rand-b": gen.Random(200, 10, 0.6, 2),
	}
	for name, db := range dbs {
		for _, minSup := range []int{2, 5, 20} {
			if minSup > db.Len() {
				continue
			}
			want := oracle.Mine(db, minSup)
			for _, kind := range []bitset.PopcountKind{bitset.PopcountHardware, bitset.PopcountTable8} {
				c := NewCPUBitset(db, kind)
				got, err := Mine(db, minSup, c, Config{})
				if err != nil {
					t.Fatalf("%s minsup=%d %s: %v", name, minSup, c.Name(), err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s minsup=%d %s diff: %v", name, minSup, c.Name(), got.Diff(want))
				}
			}
		}
	}
}

// TestCPUBitsetVariantNames pins that a CPU_TEST report names its
// popcount variant, so hardware and 2011-era table runs are told apart.
func TestCPUBitsetVariantNames(t *testing.T) {
	db := gen.Small()
	for _, kind := range []bitset.PopcountKind{bitset.PopcountHardware, bitset.PopcountTable8} {
		if got, want := NewCPUBitset(db, kind).Name(), "CPU_TEST(bitset,"+kind.String()+")"; got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestAllCountersMatchOracleFigure2(t *testing.T) {
	db := gen.Small()
	for _, minSup := range []int{1, 2, 3, 4} {
		want := oracle.Mine(db, minSup)
		for _, c := range counters(db) {
			got, err := Mine(db, minSup, c, Config{})
			if err != nil {
				t.Fatalf("%s minsup=%d: %v", c.Name(), minSup, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s minsup=%d: %d sets, oracle %d\ndiff: %v",
					c.Name(), minSup, got.Len(), want.Len(), got.Diff(want))
			}
		}
	}
}

func TestAllCountersMatchOracleRandomDBs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		db := gen.Random(60, 12, 0.35, seed)
		minSup := 5
		want := oracle.Mine(db, minSup)
		for _, c := range counters(db) {
			got, err := Mine(db, minSup, c, Config{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.Name(), err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d %s: diff %v", seed, c.Name(), got.Diff(want))
			}
		}
	}
}

func TestAllCountersAgreeOnDenseDB(t *testing.T) {
	cfg := gen.Chess()
	cfg.NumTrans = 120
	db := gen.AttributeValue(cfg)
	minSup := db.AbsoluteSupport(0.9)
	var ref *dataset.ResultSet
	for _, c := range counters(db) {
		got, err := Mine(db, minSup, c, Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !got.Equal(ref) {
			t.Fatalf("%s disagrees: %v", c.Name(), got.Diff(ref))
		}
	}
	if ref.Len() == 0 {
		t.Fatal("dense DB at 90% support found nothing — generator or miner broken")
	}
	if ref.MaxLen() < 3 {
		t.Fatalf("dense DB max itemset length %d, expected deep patterns", ref.MaxLen())
	}
}

func TestDownwardClosureProperty(t *testing.T) {
	// Every subset of a frequent itemset must itself be in the result.
	db := gen.Random(80, 10, 0.4, 11)
	rs, err := Mine(db, 8, NewCPUBitset(db, bitset.PopcountHardware), Config{})
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for _, s := range rs.Sets {
		index[s.Key()] = s.Support
	}
	for _, s := range rs.Sets {
		for drop := range s.Items {
			sub := make([]dataset.Item, 0, len(s.Items)-1)
			sub = append(sub, s.Items[:drop]...)
			sub = append(sub, s.Items[drop+1:]...)
			if len(sub) == 0 {
				continue
			}
			subSup, ok := index[dataset.NewItemset(sub, 0).Key()]
			if !ok {
				t.Fatalf("subset %v of frequent %v missing", sub, s.Items)
			}
			if subSup < s.Support {
				t.Fatalf("support not monotone: %v:%d ⊂ %v:%d", sub, subSup, s.Items, s.Support)
			}
		}
	}
}

func TestMineValidation(t *testing.T) {
	db := gen.Small()
	if _, err := Mine(db, 0, NewBodon(db), Config{}); err == nil {
		t.Fatal("minSupport=0 accepted")
	}
}

func TestMaxLenStopsEarly(t *testing.T) {
	db := gen.Small()
	rs, err := Mine(db, 1, NewBodon(db), Config{MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.MaxLen() != 2 {
		t.Fatalf("MaxLen=2 run produced length-%d sets", rs.MaxLen())
	}
}

func TestBorgeltReusableAcrossRuns(t *testing.T) {
	// The same counter instance must be reusable for a second Mine (its
	// per-generation caches must not leak stale state).
	db := gen.Random(50, 10, 0.5, 3)
	c := NewBorgelt(db)
	first, err := Mine(db, 5, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Mine(db, 5, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second) {
		t.Fatal("Borgelt counter not reusable: runs differ")
	}
}

func TestCounterNames(t *testing.T) {
	db := gen.Small()
	seen := map[string]bool{}
	for _, c := range counters(db) {
		name := c.Name()
		if name == "" || seen[name] {
			t.Fatalf("counter name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}

func TestEmptyResultWhenNoFrequentItems(t *testing.T) {
	db := dataset.New([][]dataset.Item{{0}, {1}, {2}})
	for _, c := range counters(db) {
		rs, err := Mine(db, 2, c, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() != 0 {
			t.Fatalf("%s found %d sets in all-unique DB", c.Name(), rs.Len())
		}
	}
}
