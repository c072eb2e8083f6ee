// Package trie implements the candidate trie of Apriori-style miners
// (Bodon, OSDM'05), the structure GPApriori uses on the host to generate
// candidate itemsets generation by generation.
//
// Candidates of length k and k+1 share their length-k prefix, so all
// generations live in one tree: a node at depth k represents the itemset
// spelled by the path from the root. A new generation is produced by
// merging each leaf with its right siblings (the prefix-join of Apriori)
// and the result is pruned with the downward-closure property — a
// candidate survives only if every (k-1)-subset was frequent.
//
// Children of a node are kept sorted by item, which makes the sibling
// merge linear and transaction lookups binary-searchable.
package trie

import (
	"sort"

	"gpapriori/internal/dataset"
)

// Node is one trie node. The zero value is not usable; create tries with
// New. Nodes and their Children/prefix slices may be carved from a
// worker-owned Arena by the pipelined miner, so a Node must never
// outlive the mining run that built it (results are copied out by
// FrequentPacked).
//
//gpalint:arena-scoped
type Node struct {
	Item     dataset.Item // item labeling the edge from the parent
	Support  int          // support count once counted; -1 before counting
	Children []*Node      // sorted by Item
	Depth    int          // length of the itemset this node spells
}

// Trie is a candidate trie holding all generations produced so far.
type Trie struct {
	Root    *Node
	maxItem dataset.Item
}

// New returns an empty trie.
func New() *Trie {
	return &Trie{Root: &Node{Support: -1}}
}

// child returns the child of n labeled item, or nil.
func (n *Node) child(item dataset.Item) *Node {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Item >= item })
	if i < len(n.Children) && n.Children[i].Item == item {
		return n.Children[i]
	}
	return nil
}

// addChild inserts a child labeled item (keeping children sorted) and
// returns it; if one already exists it is returned unchanged.
func (n *Node) addChild(item dataset.Item) *Node {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Item >= item })
	if i < len(n.Children) && n.Children[i].Item == item {
		return n.Children[i]
	}
	c := &Node{Item: item, Support: -1, Depth: n.Depth + 1}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
	return c
}

// Insert adds the sorted itemset to the trie, creating intermediate nodes
// as needed, and returns the final node.
func (t *Trie) Insert(items []dataset.Item) *Node {
	n := t.Root
	for _, it := range items {
		n = n.addChild(it)
		if it > t.maxItem {
			t.maxItem = it
		}
	}
	return n
}

// Lookup returns the node spelling the sorted itemset, or nil if absent.
func (t *Trie) Lookup(items []dataset.Item) *Node {
	n := t.Root
	for _, it := range items {
		n = n.child(it)
		if n == nil {
			return nil
		}
	}
	return n
}

// Contains reports whether the sorted itemset is present as a node.
func (t *Trie) Contains(items []dataset.Item) bool { return t.Lookup(items) != nil }

// SeedFrequentItems installs the first generation: one depth-1 node per
// frequent item, with its support.
func (t *Trie) SeedFrequentItems(supports []int, minSupport int) {
	for item, sup := range supports {
		if sup >= minSupport {
			n := t.Insert([]dataset.Item{dataset.Item(item)})
			n.Support = sup
		}
	}
}

// Level collects all nodes at the given depth together with the itemsets
// they spell, in lexicographic order.
func (t *Trie) Level(depth int) []Candidate {
	var out []Candidate
	prefix := make([]dataset.Item, 0, depth)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Depth == depth && n != t.Root {
			items := make([]dataset.Item, len(prefix))
			copy(items, prefix)
			out = append(out, Candidate{Items: items, Node: n})
			return
		}
		for _, c := range n.Children {
			prefix = append(prefix, c.Item)
			walk(c)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(t.Root)
	return out
}

// Candidate pairs an itemset with its trie node so counting strategies can
// write supports back in place.
type Candidate struct {
	Items []dataset.Item
	Node  *Node
}

// GenerateNext produces generation depth+1 from the frequent nodes at
// depth: every ordered pair of siblings (a<b) under a common parent forms
// a candidate prefix+a+b, which is kept only if all its depth-subsets are
// frequent nodes in the trie (Apriori pruning). New nodes are inserted
// with Support=-1 and returned in lexicographic order.
func (t *Trie) GenerateNext(depth int, minSupport int) []Candidate {
	var out []Candidate
	prefix := make([]dataset.Item, 0, depth+1)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Depth == depth-1 || (depth == 1 && n == t.Root) {
			// n's frequent children are the (k=depth) generation sharing
			// prefix; join each with its right siblings.
			kids := n.Children
			for i, a := range kids {
				if a.Support < minSupport {
					continue
				}
				for _, b := range kids[i+1:] {
					if b.Support < minSupport {
						continue
					}
					cand := append(append(append([]dataset.Item{}, prefix...), a.Item), b.Item)
					if depth >= 2 && !t.allSubsetsFrequent(cand, minSupport) {
						continue
					}
					node := a.addChild(b.Item)
					node.Support = -1
					out = append(out, Candidate{Items: cand, Node: node})
				}
			}
			return
		}
		for _, c := range n.Children {
			prefix = append(prefix, c.Item)
			walk(c)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(t.Root)
	return out
}

// allSubsetsFrequent checks downward closure: every (len-1)-subset of cand
// must exist in the trie with support ≥ minSupport. The two subsets
// obtained by dropping one of the last two items are the join's parents
// and are known frequent, but checking them is cheap and keeps the code
// uniform.
func (t *Trie) allSubsetsFrequent(cand []dataset.Item, minSupport int) bool {
	sub := make([]dataset.Item, len(cand)-1)
	for drop := range cand {
		copy(sub, cand[:drop])
		copy(sub[drop:], cand[drop+1:])
		n := t.Lookup(sub)
		if n == nil || n.Support < minSupport {
			return false
		}
	}
	return true
}

// PruneInfrequent removes nodes at the given depth whose support is below
// minSupport, so later generations never extend them.
func (t *Trie) PruneInfrequent(depth, minSupport int) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Depth == depth-1 || (depth == 1 && n == t.Root) {
			kept := n.Children[:0]
			for _, c := range n.Children {
				if c.Support >= minSupport {
					kept = append(kept, c)
				}
			}
			// Zero the tail so pruned subtrees are collectable.
			for i := len(kept); i < len(n.Children); i++ {
				n.Children[i] = nil
			}
			n.Children = kept
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
}

// CountTransaction walks one transaction through the trie incrementing the
// support of every node at targetDepth whose itemset the transaction
// contains — Bodon's horizontal support counting. The recursion tries each
// transaction item as the next trie edge.
func (t *Trie) CountTransaction(tr dataset.Transaction, targetDepth int) {
	var walk func(n *Node, from int)
	walk = func(n *Node, from int) {
		if n.Depth == targetDepth {
			n.Support++
			return
		}
		// Not enough items left to reach targetDepth? Prune the walk.
		need := targetDepth - n.Depth
		for i := from; i+need <= len(tr); i++ {
			if c := n.child(tr[i]); c != nil {
				walk(c, i+1)
			}
		}
	}
	walk(t.Root, 0)
}

// ResetSupports zeroes the supports at the given depth ahead of a counting
// pass.
func (t *Trie) ResetSupports(depth int) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Depth == depth {
			n.Support = 0
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
}

// NodeCount returns the total number of nodes excluding the root — a size
// diagnostic for memory accounting.
func (t *Trie) NodeCount() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		total := 0
		for _, c := range n.Children {
			total += 1 + walk(c)
		}
		return total
	}
	return walk(t.Root)
}
