// Slab arena for the pipelined miner's candidate generation. The
// level-wise driver allocates one Node per candidate through addChild,
// and at benchmark scale that single call site accounts for ~97% of all
// allocations in a mine (BENCH_2026-08-05.json: ~104k allocs per
// T40I10D100K run). The pipeline instead carves nodes, child-pointer
// slices and prefix itemset buffers out of chunked slabs owned by one
// worker, so steady-state candidate generation costs one allocation per
// slab (thousands of candidates), not one per candidate.
//
// Lifecycle discipline (enforced by the gpalint arenaretain analyzer):
// arena-returned memory may only be stored in structs marked
// //gpalint:arena-scoped — the candidate trie itself and the pipeline's
// per-run task structs. Everything that outlives a run (the ResultSet)
// is copied out by FrequentPacked before Reset recycles the slabs.
package trie

import "gpapriori/internal/dataset"

// arenaChunk is the slab granularity: nodes, pointers and items are
// allocated this many entries at a time. A pointer into a slab keeps the
// whole slab reachable, so the arena never tracks chunks it has handed
// out — dropping its tail references is all Reset has to do.
const arenaChunk = 4096

// Arena is a slab allocator for trie nodes and the slices hanging off
// them. Not safe for concurrent use: the pipeline keeps one per worker.
// Reset recycles everything at once; nothing is freed per node.
type Arena struct {
	nodeChunk []Node
	ptrChunk  []*Node
	itemChunk []dataset.Item
}

// NewNode returns a fresh node with Support = -1 (uncounted), carved
// from the node slab.
func (a *Arena) NewNode(item dataset.Item, depth int) *Node {
	if len(a.nodeChunk) == 0 {
		a.nodeChunk = make([]Node, arenaChunk)
	}
	n := &a.nodeChunk[0]
	a.nodeChunk = a.nodeChunk[1:]
	*n = Node{Item: item, Support: -1, Depth: depth}
	return n
}

// NodePtrs returns a zero-length child slice with capacity n, backed by
// the pointer slab. Oversized requests (≥ one chunk) get their own
// allocation.
func (a *Arena) NodePtrs(n int) []*Node {
	if n >= arenaChunk {
		return make([]*Node, 0, n)
	}
	if len(a.ptrChunk) < n {
		a.ptrChunk = make([]*Node, arenaChunk)
	}
	s := a.ptrChunk[:0:n]
	a.ptrChunk = a.ptrChunk[n:]
	return s
}

// Items returns a zero-length item buffer with capacity n, backed by
// the item slab. Oversized requests get their own allocation.
func (a *Arena) Items(n int) []dataset.Item {
	if n >= arenaChunk {
		return make([]dataset.Item, 0, n)
	}
	if len(a.itemChunk) < n {
		a.itemChunk = make([]dataset.Item, arenaChunk)
	}
	s := a.itemChunk[:0:n]
	a.itemChunk = a.itemChunk[n:]
	return s
}

// Reset drops the arena's slab tails so the next allocations start
// fresh chunks. The previous run's trie must no longer be needed:
// callers copy results out (FrequentPacked) before resetting.
func (a *Arena) Reset() {
	a.nodeChunk = nil
	a.ptrChunk = nil
	a.itemChunk = nil
}

// FrequentPacked collects every node with support ≥ minSupport whose
// depth lies in (minDepth, maxDepth] (maxDepth 0 = unbounded) into a
// result set whose itemsets all share one packed backing array — three
// allocations total instead of two per itemset. Trie paths are already
// sorted and duplicate-free, so NewItemset's copy/sort/dedup is
// skipped, and nothing in the result aliases trie (and therefore
// possibly arena) memory. The walk never reads the child list of a node
// at maxDepth, so the pipelined miner can copy a depth-bounded result
// while its workers still prune those lists; minDepth lets a
// generation boundary copy only the itemsets the previous one did not.
func (t *Trie) FrequentPacked(minSupport, minDepth, maxDepth int) *dataset.ResultSet {
	deeper := func(n *Node) bool { return maxDepth <= 0 || n.Depth < maxDepth }
	nsets, nitems := 0, 0
	var size func(n *Node)
	size = func(n *Node) {
		for _, c := range n.Children {
			if c.Support >= minSupport && c.Depth > minDepth {
				nsets++
				nitems += c.Depth
			}
			if deeper(c) {
				size(c)
			}
		}
	}
	size(t.Root)

	backing := make([]dataset.Item, 0, nitems)
	sets := make([]dataset.Itemset, 0, nsets)
	prefix := make([]dataset.Item, 0, 16)
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			prefix = append(prefix, c.Item)
			if c.Support >= minSupport && c.Depth > minDepth {
				lo := len(backing)
				backing = append(backing, prefix...)
				sets = append(sets, dataset.Itemset{Items: backing[lo:len(backing):len(backing)], Support: c.Support})
			}
			if deeper(c) {
				walk(c)
			}
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(t.Root)
	return &dataset.ResultSet{Sets: sets}
}
