package dataset

import (
	"fmt"
	"math/rand"
	"sort"
)

// RemapByFrequency relabels items so the most frequent item becomes id 0,
// the next id 1, and so on (ties by old id). High-frequency-first
// labeling is the standard preprocessing of trie-based Apriori
// implementations (Bodon): frequent items share trie prefixes, shrinking
// the candidate trie and speeding horizontal counting.
//
// It returns the remapped database and the permutation: perm[old] = new.
// Items that never occur keep a stable relabeling after all occurring
// items.
func RemapByFrequency(db *DB) (*DB, []Item) {
	sup := db.ItemSupports()
	order := make([]Item, len(sup))
	for i := range order {
		order[i] = Item(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return sup[order[a]] > sup[order[b]] })
	perm := make([]Item, len(sup))
	for newID, oldID := range order {
		perm[oldID] = Item(newID)
	}
	out := New(nil)
	row := make([]Item, 0, 64)
	for _, t := range db.trans {
		row = row[:0]
		for _, it := range t {
			row = append(row, perm[it])
		}
		out.Append(row)
	}
	return out, perm
}

// InversePermutation returns inv with inv[new] = old for a permutation
// produced by RemapByFrequency, so mined itemsets can be translated back.
func InversePermutation(perm []Item) []Item {
	inv := make([]Item, len(perm))
	for old, new := range perm {
		inv[new] = Item(old)
	}
	return inv
}

// Sample returns a database with each transaction kept independently with
// probability frac, deterministically seeded — the classical
// sampling-based approximation (Toivonen) and a quick way to scale
// workloads down.
func Sample(db *DB, frac float64, seed int64) (*DB, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("dataset: sample fraction %v out of (0,1]", frac)
	}
	rng := rand.New(rand.NewSource(seed))
	out := New(nil)
	for _, t := range db.trans {
		if rng.Float64() < frac {
			out.Append(t)
		}
	}
	return out, nil
}

// Filter returns the transactions for which keep returns true.
func Filter(db *DB, keep func(Transaction) bool) *DB {
	out := New(nil)
	for _, t := range db.trans {
		if keep(t) {
			out.Append(t)
		}
	}
	return out
}

// ProjectItems returns the database restricted to the given item set:
// every transaction keeps only items present in items; empty projections
// are dropped. Used to focus mining on an item subset (e.g. one product
// department).
func ProjectItems(db *DB, items []Item) *DB {
	keep := map[Item]bool{}
	for _, it := range items {
		keep[it] = true
	}
	out := New(nil)
	row := make([]Item, 0, 32)
	for _, t := range db.trans {
		row = row[:0]
		for _, it := range t {
			if keep[it] {
				row = append(row, it)
			}
		}
		if len(row) > 0 {
			out.Append(row)
		}
	}
	return out
}
