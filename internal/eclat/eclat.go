// Package eclat implements the Eclat frequent-itemset miner (Zaki et al.,
// KDD'97): a depth-first search over prefix equivalence classes using the
// vertical tidset layout, with the diffset optimization of Zaki & Gouda
// (SIGKDD'03) as an option. The paper lists Eclat alongside Apriori as the
// candidate-generation family it accelerates and names equivalence-class
// clustering as the classical candidate-join GPApriori's complete
// intersection replaces, so Eclat is part of the baseline roster.
package eclat

import (
	"fmt"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/vertical"
)

// Mode selects the vertical set representation used during the DFS.
type Mode int

const (
	// Tidsets intersects plain transaction-id lists.
	Tidsets Mode = iota
	// Diffsets keeps, for each itemset P∪{x}, the set d(Px) = t(P) \ t(x);
	// support(Px) = support(P) − |d(Px)|. Diffsets shrink as the search
	// deepens, the opposite of tidsets — the Zaki–Gouda optimization.
	Diffsets
)

// String names the mode for reports.
func (m Mode) String() string {
	if m == Diffsets {
		return "diffsets"
	}
	return "tidsets"
}

// Mine runs Eclat over db at the given absolute minimum support.
func Mine(db *dataset.DB, minSupport int, mode Mode) (*dataset.ResultSet, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("eclat: minimum support %d must be ≥1", minSupport)
	}
	v := vertical.BuildTidsets(db)
	rs := &dataset.ResultSet{}

	// Root equivalence class: frequent single items in ascending order.
	type member struct {
		item dataset.Item
		set  bitset.Tidset // tidset, or diffset relative to the prefix
		sup  int
	}
	var root []member
	for item, list := range v.Lists {
		if len(list) >= minSupport {
			root = append(root, member{item: dataset.Item(item), set: list, sup: len(list)})
			rs.Add([]dataset.Item{dataset.Item(item)}, len(list))
		}
	}

	// recurse extends prefix (whose members are the class) depth-first.
	var recurse func(prefix []dataset.Item, class []member)
	recurse = func(prefix []dataset.Item, class []member) {
		for i, a := range class {
			newPrefix := append(prefix, a.item)
			var next []member
			for _, b := range class[i+1:] {
				var m member
				m.item = b.item
				switch mode {
				case Tidsets:
					m.set = a.set.Intersect(b.set)
					m.sup = len(m.set)
				case Diffsets:
					if len(prefix) == 0 {
						// First level: d(ab) = t(a) \ t(b).
						m.set = a.set.Diff(b.set)
					} else {
						// d(Pab) = d(Pb) \ d(Pa).
						m.set = b.set.Diff(a.set)
					}
					m.sup = a.sup - len(m.set)
				}
				if m.sup >= minSupport {
					rs.Add(append(newPrefix, b.item), m.sup)
					next = append(next, m)
				}
			}
			if len(next) > 1 {
				recurse(newPrefix, next)
			} else if len(next) == 1 {
				// A singleton class cannot extend further but its itemset
				// was already emitted above.
				_ = next
			}
			prefix = newPrefix[:len(newPrefix)-1]
		}
	}
	recurse(make([]dataset.Item, 0, 16), root)
	return rs, nil
}
