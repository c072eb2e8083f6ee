package server

import (
	"fmt"
	"testing"

	"gpapriori"
)

// entryOf builds a cache entry whose body is n bytes.
func entryOf(key uint64, n int) *cacheEntry {
	return &cacheEntry{key: key, body: make([]byte, n)}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewResultCache(100)
	c.Put(entryOf(1, 40))
	c.Put(entryOf(2, 40))
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Put(entryOf(3, 40)) // over budget: evict 2
	if _, ok := c.Get(2); ok {
		t.Fatal("entry 2 should have been evicted (LRU)")
	}
	for _, k := range []uint64{1, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %d should have survived", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestCacheOversizedEntryNotCached(t *testing.T) {
	c := NewResultCache(50)
	c.Put(entryOf(1, 51))
	if _, ok := c.Get(1); ok {
		t.Fatal("entry larger than the budget must not be cached")
	}
	if st := c.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("oversized put must not count: %+v", st)
	}
}

func TestCacheZeroBudgetDisables(t *testing.T) {
	c := NewResultCache(0)
	c.Put(entryOf(1, 1))
	if _, ok := c.Get(1); ok {
		t.Fatal("zero-budget cache must always miss")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("disabled cache still counts traffic: %+v", st)
	}
}

func TestCacheDuplicatePutKeepsOne(t *testing.T) {
	c := NewResultCache(100)
	c.Put(entryOf(7, 10))
	c.Put(entryOf(7, 10))
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 10 || st.Puts != 1 {
		t.Fatalf("duplicate put: %+v", st)
	}
}

func TestCacheHitMissCounts(t *testing.T) {
	c := NewResultCache(1 << 20)
	for i := 0; i < 5; i++ {
		c.Put(entryOf(uint64(i), 10))
	}
	for i := 0; i < 10; i++ {
		c.Get(uint64(i))
	}
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 5 {
		t.Fatalf("hits=%d misses=%d, want 5/5", st.Hits, st.Misses)
	}
}

func TestCacheManyEvictionsStayWithinBudget(t *testing.T) {
	c := NewResultCache(1000)
	for i := 0; i < 200; i++ {
		c.Put(entryOf(uint64(i), 100))
	}
	st := c.Stats()
	if st.Bytes > st.BudgetBytes {
		t.Fatalf("cache over budget: %+v", st)
	}
	if st.Entries != 10 || st.Evictions != 190 {
		t.Fatalf("expected 10 resident / 190 evicted: %+v", st)
	}
	// The survivors are the 10 most recent keys.
	for i := 190; i < 200; i++ {
		if _, ok := c.Get(uint64(i)); !ok {
			t.Fatalf("recent key %d evicted", i)
		}
	}
}

// TestCacheChargesDecodedItemsets: an entry is charged its body plus
// the decoded itemsets every hit shares, 32 bytes per itemset and 4 per
// item, for mined and peer-installed entries alike.
func TestCacheChargesDecodedItemsets(t *testing.T) {
	withItemsets := func(key uint64, bodyLen int) *cacheEntry {
		e := entryOf(key, bodyLen)
		e.itemsets = []gpapriori.Itemset{
			{Items: []gpapriori.Item{1}, Support: 5},
			{Items: []gpapriori.Item{1, 2, 3}, Support: 4},
		}
		return e
	}
	const charge = 10 + 2*32 + 4*4
	c := NewResultCache(100)
	c.Put(withItemsets(1, 10))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != charge {
		t.Fatalf("one entry: %+v, want bytes %d", st, charge)
	}
	// Two bodies of 10 bytes fit the budget; their itemsets do not.
	c.Put(withItemsets(2, 10))
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 || st.Bytes != charge {
		t.Fatalf("second entry: %+v, want one resident entry after one eviction", st)
	}
	// A body that fits alone is refused when its itemsets overflow.
	c.Put(withItemsets(3, 50))
	if _, ok := c.Get(3); ok {
		t.Fatal("entry whose itemsets overflow the budget was cached")
	}
}

func TestRegistrySpecs(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddSpec("c", "gen:chess:0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddSpec("qs", "quest:50:100:8:3"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"", "chess", "gen:chess", "gen:chess:2.0", "gen:nope:0.5",
		"quest:50:100:8", "quest:-1:100:8:3", "zip:/tmp/x",
	} {
		if _, err := LoadDatasetSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
	if _, err := reg.AddSpec("c", "gen:chess:0.1"); err == nil {
		t.Error("duplicate name: want error")
	}
	for _, bad := range []string{"", "a/b", "a b", "x\\y", fmt.Sprintf("%0129d", 0)} {
		if _, err := reg.AddSpec(bad, "gen:chess:0.1"); err == nil {
			t.Errorf("name %q: want error", bad)
		}
	}
	ds := reg.List()
	if len(ds) != 2 || ds[0].Name != "c" || ds[1].Name != "qs" {
		t.Fatalf("list: %+v", ds)
	}
}
