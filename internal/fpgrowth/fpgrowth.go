// Package fpgrowth implements the FP-Growth frequent-itemset miner (Han,
// Pei & Yin, SIGMOD'00): two database scans build a frequent-pattern tree,
// and patterns are mined by recursive conditional-pattern-base projection
// without generating candidates. The paper's Section II positions
// FP-Growth as the fastest serial miner at low support but harder to
// parallelize than Apriori — our background ablation bench reproduces that
// crossover.
package fpgrowth

import (
	"fmt"
	"sort"

	"gpapriori/internal/dataset"
)

// node is one FP-tree node.
type node struct {
	item     dataset.Item
	count    int
	parent   *node
	children map[dataset.Item]*node
	next     *node // header-table chain of nodes with the same item
}

// tree is an FP-tree with its header table.
type tree struct {
	root   *node
	heads  map[dataset.Item]*node // first node of each item's chain
	counts map[dataset.Item]int   // total count per item in this tree
}

func newTree() *tree {
	return &tree{
		root:   &node{children: map[dataset.Item]*node{}},
		heads:  map[dataset.Item]*node{},
		counts: map[dataset.Item]int{},
	}
}

// insert adds one (ordered) item path with the given count.
func (t *tree) insert(items []dataset.Item, count int) {
	cur := t.root
	for _, it := range items {
		child, ok := cur.children[it]
		if !ok {
			child = &node{item: it, parent: cur, children: map[dataset.Item]*node{}}
			child.next = t.heads[it]
			t.heads[it] = child
			cur.children[it] = child
		}
		child.count += count
		t.counts[it] += count
		cur = child
	}
}

// singlePath returns the unique root-to-leaf path if the tree is a single
// chain, else nil. Single-path trees are mined combinatorially.
func (t *tree) singlePath() []*node {
	var path []*node
	cur := t.root
	for {
		if len(cur.children) == 0 {
			return path
		}
		if len(cur.children) > 1 {
			return nil
		}
		for _, c := range cur.children {
			cur = c
		}
		path = append(path, cur)
	}
}

// Mine runs FP-Growth over db at the given absolute minimum support.
func Mine(db *dataset.DB, minSupport int) (*dataset.ResultSet, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpgrowth: minimum support %d must be ≥1", minSupport)
	}
	// Scan 1: item supports; keep frequent items ordered by descending
	// support (ties by ascending id) — the canonical FP-tree item order.
	supports := db.ItemSupports()
	order := make([]dataset.Item, 0, len(supports))
	for it, s := range supports {
		if s >= minSupport {
			order = append(order, dataset.Item(it))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if supports[a] != supports[b] {
			return supports[a] > supports[b]
		}
		return a < b
	})
	rank := make(map[dataset.Item]int, len(order))
	for i, it := range order {
		rank[it] = i
	}

	// Scan 2: insert each transaction's frequent items in rank order.
	t := newTree()
	row := make([]dataset.Item, 0, 64)
	for _, tr := range db.Transactions() {
		row = row[:0]
		for _, it := range tr {
			if _, ok := rank[it]; ok {
				row = append(row, it)
			}
		}
		sort.Slice(row, func(i, j int) bool { return rank[row[i]] < rank[row[j]] })
		if len(row) > 0 {
			t.insert(row, 1)
		}
	}

	rs := &dataset.ResultSet{}
	var mine func(t *tree, suffix []dataset.Item)
	mine = func(t *tree, suffix []dataset.Item) {
		// Single-path shortcut: every subset of the path, with the count
		// of its deepest node, combined with the suffix.
		if path := t.singlePath(); path != nil {
			var gen func(from int, chosen []dataset.Item, minCount int)
			gen = func(from int, chosen []dataset.Item, minCount int) {
				for i := from; i < len(path); i++ {
					cnt := path[i].count
					if cnt < minSupport {
						continue
					}
					c := minCount
					if cnt < c {
						c = cnt
					}
					pick := append(chosen, path[i].item)
					rs.Add(append(pick, suffix...), c)
					gen(i+1, pick, c)
					pick = pick[:len(pick)-1]
				}
			}
			gen(0, make([]dataset.Item, 0, len(path)), int(^uint(0)>>1))
			return
		}
		// General case: for each frequent item (least-frequent first),
		// emit item+suffix, then mine its conditional tree.
		items := make([]dataset.Item, 0, len(t.counts))
		for it, c := range t.counts {
			if c >= minSupport {
				items = append(items, it)
			}
		}
		sort.Slice(items, func(i, j int) bool {
			if t.counts[items[i]] != t.counts[items[j]] {
				return t.counts[items[i]] < t.counts[items[j]]
			}
			return items[i] < items[j]
		})
		for _, it := range items {
			newSuffix := append([]dataset.Item{it}, suffix...)
			rs.Add(newSuffix, t.counts[it])
			// Conditional pattern base: prefix paths of every node of it.
			cond := newTree()
			for n := t.heads[it]; n != nil; n = n.next {
				var path []dataset.Item
				for p := n.parent; p != nil && p.parent != nil; p = p.parent {
					path = append(path, p.item)
				}
				// path is leaf→root; reverse to root→leaf insertion order.
				for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
					path[l], path[r] = path[r], path[l]
				}
				if len(path) > 0 {
					cond.insert(path, n.count)
				}
			}
			// Prune infrequent items from the conditional tree by
			// rebuilding it with only frequent items.
			pruned := newTree()
			prunedInsert(cond, pruned, minSupport)
			if len(pruned.counts) > 0 {
				mine(pruned, newSuffix)
			}
		}
	}
	mine(t, nil)
	return rs, nil
}

// prunedInsert rebuilds src into dst keeping only items frequent in src.
// Paths must be re-filtered (not just truncated) because an infrequent
// item can sit in the middle of a branch.
func prunedInsert(src, dst *tree, minSupport int) {
	var walk func(n *node, path []dataset.Item)
	walk = func(n *node, path []dataset.Item) {
		// Contribution of this node beyond its children (paths ending
		// here).
		childSum := 0
		for _, c := range n.children {
			childSum += c.count
		}
		if n != src.root {
			if src.counts[n.item] >= minSupport {
				path = append(path, n.item)
			}
			if end := n.count - childSum; end > 0 && len(path) > 0 {
				dst.insert(path, end)
			}
		}
		for _, c := range n.children {
			walk(c, path)
		}
	}
	walk(src.root, nil)
}
