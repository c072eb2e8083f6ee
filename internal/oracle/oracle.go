// Package oracle provides a brute-force frequent-itemset miner used as the
// reference implementation in tests: exhaustive depth-first enumeration
// with support counted by scanning every transaction. Exponential, so only
// usable on small databases — which is exactly its job.
package oracle

import (
	"gpapriori/internal/dataset"
)

// Mine returns every itemset with support ≥ minSupport by exhaustive
// enumeration. Intended for databases with at most a few dozen distinct
// items.
func Mine(db *dataset.DB, minSupport int) *dataset.ResultSet {
	rs := &dataset.ResultSet{}
	n := db.NumItems()
	var extend func(prefix []dataset.Item, from int)
	extend = func(prefix []dataset.Item, from int) {
		for it := from; it < n; it++ {
			cand := append(prefix, dataset.Item(it))
			sup := 0
			for _, tr := range db.Transactions() {
				if tr.ContainsAll(cand) {
					sup++
				}
			}
			// Downward closure: if cand is infrequent no superset can be
			// frequent, so the subtree is pruned.
			if sup >= minSupport {
				rs.Add(cand, sup)
				extend(cand, it+1)
			}
			prefix = cand[:len(cand)-1]
		}
	}
	extend(make([]dataset.Item, 0, n), 0)
	return rs
}
