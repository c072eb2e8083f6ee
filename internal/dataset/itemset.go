package dataset

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Itemset is a sorted set of items together with its support count. Every
// miner in the repository returns its results in this form so that outputs
// can be compared bit-for-bit across algorithms. The JSON tags fix the
// shape the serving layer streams (the root package's Itemset is this
// type).
type Itemset struct {
	Items   []Item `json:"items"`
	Support int    `json:"support"`
}

// NewItemset copies, sorts and deduplicates items.
func NewItemset(items []Item, support int) Itemset {
	s := make([]Item, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return Itemset{Items: out, Support: support}
}

// Key returns a canonical string key ("1 5 9") for maps and sorting.
func (s Itemset) Key() string {
	var b strings.Builder
	for i, it := range s.Items {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(it), 10))
	}
	return b.String()
}

// String renders the itemset with its support, e.g. "{1 5 9}:42".
func (s Itemset) String() string {
	return "{" + s.Key() + "}:" + strconv.Itoa(s.Support)
}

// ResultSet is the complete output of one mining run.
type ResultSet struct {
	Sets []Itemset
}

// Add appends an itemset to the result set, normalized by NewItemset.
func (r *ResultSet) Add(items []Item, support int) {
	r.Sets = append(r.Sets, NewItemset(items, support))
}

// Append adds an itemset that must keep r canonical, without copying
// items: they must strictly increase, and the itemset must sort after
// r's last one by Compare, which also refuses a repeat. A reader of a
// canonical result checks each itemset with it as the itemset arrives.
func (r *ResultSet) Append(items []Item, support int) error {
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			return fmt.Errorf("items of {%s} do not strictly increase", Itemset{Items: items}.Key())
		}
	}
	if n := len(r.Sets); n > 0 {
		last := r.Sets[n-1]
		switch c := Compare(last.Items, items); {
		case c == 0:
			return fmt.Errorf("itemset {%s} repeats", last.Key())
		case c > 0:
			return fmt.Errorf("itemset {%s} comes after {%s}, out of canonical order", Itemset{Items: items}.Key(), last.Key())
		}
	}
	r.Sets = append(r.Sets, Itemset{Items: items, Support: support})
	return nil
}

// Len returns the number of frequent itemsets found.
func (r *ResultSet) Len() int { return len(r.Sets) }

// Compare is the canonical order of itemsets: by size, then
// lexicographically by items. It returns a negative number when a sorts
// before b, a positive one when after, and zero for the same items.
func Compare(a, b []Item) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return slices.Compare(a, b)
}

// Sort orders the result canonically (Compare). All cross-miner
// comparisons sort first.
func (r *ResultSet) Sort() {
	slices.SortFunc(r.Sets, func(a, b Itemset) int { return Compare(a.Items, b.Items) })
}

// Sorted reports whether r is in canonical order with no itemset
// repeated, as Sort leaves a miner's result.
func (r *ResultSet) Sorted() bool {
	for i := 1; i < len(r.Sets); i++ {
		if Compare(r.Sets[i-1].Items, r.Sets[i].Items) >= 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two result sets contain exactly the same itemsets
// with the same supports, regardless of order.
func (r *ResultSet) Equal(o *ResultSet) bool {
	if len(r.Sets) != len(o.Sets) {
		return false
	}
	m := make(map[string]int, len(r.Sets))
	for _, s := range r.Sets {
		m[s.Key()] = s.Support
	}
	for _, s := range o.Sets {
		sup, ok := m[s.Key()]
		if !ok || sup != s.Support {
			return false
		}
	}
	return true
}

// Diff returns human-readable descriptions of itemsets present in exactly
// one of the two result sets or differing in support — used by the
// cross-checking tool to explain mismatches.
func (r *ResultSet) Diff(o *ResultSet) []string {
	var out []string
	m := make(map[string]int, len(r.Sets))
	for _, s := range r.Sets {
		m[s.Key()] = s.Support
	}
	seen := make(map[string]bool, len(o.Sets))
	for _, s := range o.Sets {
		seen[s.Key()] = true
		if sup, ok := m[s.Key()]; !ok {
			out = append(out, "only in other: "+s.String())
		} else if sup != s.Support {
			out = append(out, "support mismatch "+s.Key()+": "+strconv.Itoa(sup)+" vs "+strconv.Itoa(s.Support))
		}
	}
	for _, s := range r.Sets {
		if !seen[s.Key()] {
			out = append(out, "only in first: "+s.String())
		}
	}
	sort.Strings(out)
	return out
}

// MaxLen returns the size of the largest frequent itemset.
func (r *ResultSet) MaxLen() int {
	m := 0
	for _, s := range r.Sets {
		if len(s.Items) > m {
			m = len(s.Items)
		}
	}
	return m
}

// CountBySize returns a histogram of itemset sizes, indexed by length
// (index 0 unused).
func (r *ResultSet) CountBySize() []int {
	h := make([]int, r.MaxLen()+1)
	for _, s := range r.Sets {
		h[len(s.Items)]++
	}
	return h
}
