package trie

import (
	"math/rand"
	"testing"

	"gpapriori/internal/dataset"
)

func items(xs ...dataset.Item) []dataset.Item { return xs }

func TestInsertLookup(t *testing.T) {
	tr := New()
	tr.Insert(items(1, 3, 5))
	if !tr.Contains(items(1, 3, 5)) {
		t.Fatal("inserted itemset not found")
	}
	if !tr.Contains(items(1, 3)) {
		t.Fatal("prefix not found")
	}
	if tr.Contains(items(3, 5)) {
		t.Fatal("non-prefix suffix reported present")
	}
	if tr.Contains(items(1, 3, 5, 7)) {
		t.Fatal("extension reported present")
	}
}

func TestChildrenSorted(t *testing.T) {
	tr := New()
	for _, it := range []dataset.Item{5, 1, 9, 3, 7} {
		tr.Insert(items(it))
	}
	kids := tr.Root.Children
	for i := 1; i < len(kids); i++ {
		if kids[i-1].Item >= kids[i].Item {
			t.Fatalf("children unsorted: %v then %v", kids[i-1].Item, kids[i].Item)
		}
	}
	if len(kids) != 5 {
		t.Fatalf("child count = %d, want 5", len(kids))
	}
}

func TestInsertIdempotent(t *testing.T) {
	tr := New()
	a := tr.Insert(items(2, 4))
	b := tr.Insert(items(2, 4))
	if a != b {
		t.Fatal("re-insert created a new node")
	}
	if tr.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d, want 2", tr.NodeCount())
	}
}

func TestSeedFrequentItems(t *testing.T) {
	tr := New()
	tr.SeedFrequentItems([]int{5, 2, 9, 1}, 2)
	lvl := tr.Level(1)
	if len(lvl) != 3 {
		t.Fatalf("level 1 = %d candidates, want 3 (supports 5,2,9)", len(lvl))
	}
	n := tr.Lookup(items(0))
	if n == nil || n.Support != 5 {
		t.Fatalf("item 0 node = %+v", n)
	}
	if tr.Contains(items(3)) {
		t.Fatal("infrequent item seeded")
	}
}

func TestLevelReturnsLexicographicOrder(t *testing.T) {
	tr := New()
	tr.Insert(items(2, 5))
	tr.Insert(items(1, 9))
	tr.Insert(items(1, 4))
	lvl := tr.Level(2)
	keys := [][]dataset.Item{{1, 4}, {1, 9}, {2, 5}}
	if len(lvl) != 3 {
		t.Fatalf("level 2 size = %d", len(lvl))
	}
	for i, want := range keys {
		got := lvl[i].Items
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("level[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestGenerateNextJoinsSiblings(t *testing.T) {
	tr := New()
	tr.SeedFrequentItems([]int{3, 3, 3}, 1) // items 0,1,2 all frequent
	cands := tr.GenerateNext(1, 1)
	// Pairs: {0,1},{0,2},{1,2}.
	if len(cands) != 3 {
		t.Fatalf("generated %d candidates, want 3", len(cands))
	}
	for _, c := range cands {
		if c.Node.Support != -1 {
			t.Fatalf("new candidate %v has support %d, want -1", c.Items, c.Node.Support)
		}
		if len(c.Items) != 2 {
			t.Fatalf("candidate %v has wrong length", c.Items)
		}
	}
}

func TestGenerateNextAprioriPruning(t *testing.T) {
	// Frequent 2-sets: {0,1},{0,2} but NOT {1,2} → {0,1,2} must be pruned.
	tr := New()
	tr.SeedFrequentItems([]int{2, 2, 2}, 1)
	n01 := tr.Insert(items(0, 1))
	n01.Support = 2
	n02 := tr.Insert(items(0, 2))
	n02.Support = 2
	cands := tr.GenerateNext(2, 2)
	if len(cands) != 0 {
		t.Fatalf("generated %v, want none (subset {1,2} infrequent)", cands)
	}

	// Now make {1,2} frequent: the triple should be generated.
	n12 := tr.Insert(items(1, 2))
	n12.Support = 2
	cands = tr.GenerateNext(2, 2)
	if len(cands) != 1 || len(cands[0].Items) != 3 {
		t.Fatalf("generated %v, want exactly {0,1,2}", cands)
	}
}

func TestGenerateNextSkipsInfrequentSiblings(t *testing.T) {
	tr := New()
	tr.SeedFrequentItems([]int{5, 1, 5}, 2) // item 1 infrequent
	cands := tr.GenerateNext(1, 2)
	if len(cands) != 1 {
		t.Fatalf("generated %d candidates, want 1 ({0,2})", len(cands))
	}
	if cands[0].Items[0] != 0 || cands[0].Items[1] != 2 {
		t.Fatalf("candidate = %v, want {0,2}", cands[0].Items)
	}
}

func TestPruneInfrequent(t *testing.T) {
	tr := New()
	tr.SeedFrequentItems([]int{5, 5}, 1)
	a := tr.Insert(items(0, 1))
	a.Support = 1
	tr.PruneInfrequent(2, 2)
	if tr.Contains(items(0, 1)) {
		t.Fatal("infrequent node not pruned")
	}
	if !tr.Contains(items(0)) || !tr.Contains(items(1)) {
		t.Fatal("pruning removed level-1 nodes")
	}
}

func TestCountTransaction(t *testing.T) {
	tr := New()
	tr.Insert(items(1, 2)).Support = 0
	tr.Insert(items(1, 3)).Support = 0
	tr.Insert(items(2, 3)).Support = 0
	tr.CountTransaction(dataset.Transaction{1, 2, 4}, 2)
	if n := tr.Lookup(items(1, 2)); n.Support != 1 {
		t.Fatalf("{1,2} support = %d, want 1", n.Support)
	}
	if n := tr.Lookup(items(1, 3)); n.Support != 0 {
		t.Fatalf("{1,3} support = %d, want 0", n.Support)
	}
	if n := tr.Lookup(items(2, 3)); n.Support != 0 {
		t.Fatalf("{2,3} support = %d, want 0", n.Support)
	}
}

func TestCountTransactionMatchesContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := New()
	// Random 3-candidates over items 0..9.
	var cands [][]dataset.Item
	for len(cands) < 15 {
		s := dataset.NewItemset([]dataset.Item{
			dataset.Item(rng.Intn(10)), dataset.Item(rng.Intn(10)), dataset.Item(rng.Intn(10)),
		}, 0)
		if len(s.Items) != 3 || tr.Contains(s.Items) {
			continue
		}
		tr.Insert(s.Items).Support = 0
		cands = append(cands, s.Items)
	}
	// Random transactions; count via trie and via brute force.
	want := make(map[string]int)
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(8)
		raw := make([]dataset.Item, n)
		for j := range raw {
			raw[j] = dataset.Item(rng.Intn(10))
		}
		trn := dataset.NewItemset(raw, 0)
		tx := dataset.Transaction(trn.Items)
		tr.CountTransaction(tx, 3)
		for _, c := range cands {
			if tx.ContainsAll(c) {
				want[dataset.NewItemset(c, 0).Key()]++
			}
		}
	}
	for _, c := range cands {
		key := dataset.NewItemset(c, 0).Key()
		if n := tr.Lookup(c); n.Support != want[key] {
			t.Fatalf("candidate %v: trie support %d, brute force %d", c, n.Support, want[key])
		}
	}
}

func TestResetSupports(t *testing.T) {
	tr := New()
	tr.Insert(items(1, 2)).Support = 7
	tr.ResetSupports(2)
	if n := tr.Lookup(items(1, 2)); n.Support != 0 {
		t.Fatalf("support = %d after reset, want 0", n.Support)
	}
}

func TestFrequentCollects(t *testing.T) {
	tr := New()
	tr.SeedFrequentItems([]int{3, 1, 4}, 3) // items 0 and 2
	tr.Insert(items(0, 2)).Support = 3
	tr.Insert(items(0, 1)).Support = 1 // infrequent, excluded
	rs := tr.FrequentPacked(3, 0, 0)
	rs.Sort()
	if rs.Len() != 3 {
		t.Fatalf("FrequentPacked returned %d sets, want 3", rs.Len())
	}
	if rs.Sets[2].Key() != "0 2" || rs.Sets[2].Support != 3 {
		t.Fatalf("largest frequent set = %v", rs.Sets[2])
	}
}

func TestNodeCount(t *testing.T) {
	tr := New()
	if tr.NodeCount() != 0 {
		t.Fatal("empty trie has nodes")
	}
	tr.Insert(items(1, 2, 3))
	tr.Insert(items(1, 2, 4))
	if tr.NodeCount() != 4 {
		t.Fatalf("NodeCount = %d, want 4 (1,12,123,124)", tr.NodeCount())
	}
}

func TestDeepTrieGeneration(t *testing.T) {
	// All subsets of {0..4} frequent → generations must grow then stop.
	tr := New()
	tr.SeedFrequentItems([]int{1, 1, 1, 1, 1}, 1)
	sizes := []int{}
	depth := 1
	for {
		cands := tr.GenerateNext(depth, 1)
		if len(cands) == 0 {
			break
		}
		for _, c := range cands {
			c.Node.Support = 1 // pretend all frequent
		}
		sizes = append(sizes, len(cands))
		depth++
	}
	want := []int{10, 10, 5, 1} // C(5,2..5)
	if len(sizes) != len(want) {
		t.Fatalf("generation sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("generation sizes = %v, want %v", sizes, want)
		}
	}
}

// Property: GenerateNext produces exactly the candidates whose every
// k-subset is frequent — no more, no fewer.
func TestPropertyGenerateNextIsAprioriJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(5)
		// Random set of "frequent" pairs over n items.
		freqPairs := map[[2]dataset.Item]bool{}
		tr := New()
		tr.SeedFrequentItems(make([]int, n), 0) // all items frequent at 0
		for i := 0; i < n; i++ {
			tr.Lookup(items(dataset.Item(i))).Support = 1
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					freqPairs[[2]dataset.Item{dataset.Item(i), dataset.Item(j)}] = true
					tr.Insert(items(dataset.Item(i), dataset.Item(j))).Support = 1
				}
			}
		}
		cands := tr.GenerateNext(2, 1)
		got := map[string]bool{}
		for _, c := range cands {
			got[dataset.NewItemset(c.Items, 0).Key()] = true
		}
		// Brute force: all triples whose 3 pairs are frequent.
		want := map[string]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for k := j + 1; k < n; k++ {
					a, bb, c := dataset.Item(i), dataset.Item(j), dataset.Item(k)
					if freqPairs[[2]dataset.Item{a, bb}] &&
						freqPairs[[2]dataset.Item{a, c}] &&
						freqPairs[[2]dataset.Item{bb, c}] {
						want[dataset.NewItemset([]dataset.Item{a, bb, c}, 0).Key()] = true
					}
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: generated %d candidates, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing candidate %s", trial, k)
			}
		}
	}
}
