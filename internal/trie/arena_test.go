package trie

import (
	"testing"

	"gpapriori/internal/dataset"
)

func TestArenaNewNode(t *testing.T) {
	var a Arena
	// Cross several chunk boundaries and verify every node keeps its
	// identity and fields.
	const n = 3*arenaChunk + 17
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = a.NewNode(dataset.Item(i), i%7)
	}
	for i, nd := range nodes {
		if nd.Item != dataset.Item(i) || nd.Depth != i%7 || nd.Support != -1 || nd.Children != nil {
			t.Fatalf("node %d corrupted: %+v", i, *nd)
		}
	}
	// Distinct nodes must not alias.
	nodes[0].Support = 99
	if nodes[1].Support != -1 {
		t.Fatal("adjacent arena nodes alias")
	}
}

func TestArenaNodePtrs(t *testing.T) {
	var a Arena
	s1 := a.NodePtrs(3)
	s2 := a.NodePtrs(5)
	if len(s1) != 0 || cap(s1) != 3 || len(s2) != 0 || cap(s2) != 5 {
		t.Fatalf("bad shapes: cap(s1)=%d cap(s2)=%d", cap(s1), cap(s2))
	}
	n1, n2 := a.NewNode(1, 1), a.NewNode(2, 1)
	s1 = append(s1, n1, n2, n1)
	s2 = append(s2, n2)
	// Full capacity on s1 must not spill into s2's slab region.
	if s2[0] != n2 || s1[2] != n1 {
		t.Fatal("pointer slabs overlap")
	}
	// Appending past capacity must reallocate, not clobber the slab.
	s1 = append(s1, n2)
	if s2[0] != n2 {
		t.Fatal("append past cap clobbered a sibling slice")
	}
	// Oversized request gets its own allocation and still works.
	big := a.NodePtrs(2 * arenaChunk)
	if cap(big) != 2*arenaChunk {
		t.Fatalf("oversized cap %d", cap(big))
	}
}

func TestArenaItems(t *testing.T) {
	var a Arena
	s1 := a.Items(4)
	s2 := a.Items(4)
	s1 = append(s1, 1, 2, 3, 4)
	s2 = append(s2, 9, 9, 9, 9)
	if s1[0] != 1 || s1[3] != 4 {
		t.Fatalf("item slabs overlap: %v", s1)
	}
	big := a.Items(arenaChunk)
	if cap(big) != arenaChunk {
		t.Fatalf("oversized cap %d", cap(big))
	}
}

func TestArenaReset(t *testing.T) {
	var a Arena
	old := a.NewNode(7, 1)
	a.Reset()
	// Post-reset allocations come from fresh chunks; the old node is
	// untouched as long as someone still references it.
	fresh := a.NewNode(8, 2)
	if old.Item != 7 || fresh.Item != 8 {
		t.Fatal("reset corrupted live or fresh nodes")
	}
}

// buildTestTrie makes a small trie with known frequent sets.
func buildTestTrie() *Trie {
	tr := New()
	tr.Insert([]dataset.Item{1}).Support = 10
	tr.Insert([]dataset.Item{2}).Support = 8
	tr.Insert([]dataset.Item{3}).Support = 2 // infrequent at minsup 5
	tr.Insert([]dataset.Item{1, 2}).Support = 6
	tr.Insert([]dataset.Item{1, 3}).Support = 1
	tr.Insert([]dataset.Item{1, 2, 3}).Support = 5
	return tr
}

// Frequent is FrequentPacked's reference: every node with support ≥
// minSupport, each itemset built through ResultSet.Add.
func (t *Trie) Frequent(minSupport int) *dataset.ResultSet {
	rs := &dataset.ResultSet{}
	prefix := make([]dataset.Item, 0, 16)
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			prefix = append(prefix, c.Item)
			if c.Support >= minSupport {
				rs.Add(prefix, c.Support)
			}
			walk(c)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(t.Root)
	return rs
}

// TestFrequentPackedMatchesFrequent: for every depth range (lo, hi]
// (hi 0 = unbounded), FrequentPacked returns exactly the reference's
// itemsets of a length in that range.
func TestFrequentPackedMatchesFrequent(t *testing.T) {
	tr := buildTestTrie()
	for _, minsup := range []int{1, 5, 7, 100} {
		want := tr.Frequent(minsup)
		for lo := 0; lo <= 3; lo++ {
			for _, hi := range []int{0, 1, 2, 3} {
				ranged := &dataset.ResultSet{}
				for _, s := range want.Sets {
					if len(s.Items) > lo && (hi == 0 || len(s.Items) <= hi) {
						ranged.Add(s.Items, s.Support)
					}
				}
				if got := tr.FrequentPacked(minsup, lo, hi); !got.Equal(ranged) {
					t.Fatalf("minsup=%d depths (%d,%d]: packed %v != %v", minsup, lo, hi, got.Sets, ranged.Sets)
				}
			}
		}
	}
}

func TestFrequentPackedDoesNotAliasTrie(t *testing.T) {
	tr := buildTestTrie()
	rs := tr.FrequentPacked(5, 0, 0)
	// Mutating the trie after extraction must not change the results.
	var scramble func(n *Node)
	scramble = func(n *Node) {
		for _, c := range n.Children {
			c.Item = 999
			scramble(c)
		}
	}
	scramble(tr.Root)
	for _, s := range rs.Sets {
		for _, it := range s.Items {
			if it == 999 {
				t.Fatal("FrequentPacked result aliases trie memory")
			}
		}
	}
}
