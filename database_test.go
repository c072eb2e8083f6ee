package gpapriori_test

import (
	"context"
	"sync"
	"testing"

	"gpapriori"
	"gpapriori/internal/server"
)

// TestItemSupportsCountedOnFirstUse: registering a dataset counts no
// item supports, so registration stays a load. The first memory
// estimate or mine counts them, and every later mine and estimate
// reuses that one slice.
func TestItemSupportsCountedOnFirstUse(t *testing.T) {
	reg := server.NewRegistry()
	rows, err := reg.Add("rows", "test", gpapriori.NewDatabase([][]gpapriori.Item{{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	chess, err := reg.AddSpec("chess", "gen:chess:0.05")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := gpapriori.Config{RelativeSupport: 0.5}
	mine := func(db *gpapriori.Database) {
		if _, err := gpapriori.MineContext(ctx, db, cfg); err != nil {
			t.Fatal(err)
		}
	}
	estimate := func(db *gpapriori.Database) { gpapriori.EstimateMemoryBytes(db, db.AbsoluteSupport(0.5)) }
	for _, c := range []struct {
		entry *server.DatasetEntry
		first func(*gpapriori.Database)
	}{
		{rows, estimate},
		{chess, mine},
	} {
		db := c.entry.DB
		if memo := gpapriori.SupportsMemo(db); memo != nil {
			t.Fatalf("%s: registration counted item supports", c.entry.Name)
		}
		c.first(db)
		memo := gpapriori.SupportsMemo(db)
		if len(memo) != db.NumItems() {
			t.Fatalf("%s: first use left %d supports, want one per item (%d)", c.entry.Name, len(memo), db.NumItems())
		}
		mine(db)
		estimate(db)
		mine(db)
		if again := gpapriori.SupportsMemo(db); &again[0] != &memo[0] {
			t.Fatalf("%s: a later mine counted the item supports again", c.entry.Name)
		}
	}

	// Concurrent first uses, as concurrent jobs on one dataset make
	// them, share one count.
	db := gpapriori.NewDatabase([][]gpapriori.Item{{0, 1}, {1, 2}, {0, 2}})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				estimate(db)
			} else if _, err := gpapriori.MineContext(ctx, db, cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if memo := gpapriori.SupportsMemo(db); len(memo) != db.NumItems() {
		t.Fatalf("concurrent first uses left %d supports, want %d", len(memo), db.NumItems())
	}
}
