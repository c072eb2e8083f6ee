// Package rules generates association rules from mined frequent itemsets —
// the application FIM exists for (the paper's supermarket example: people
// who buy vegetables often also buy salad dressing). It implements the
// classical Agrawal–Srikant rule expansion: for every frequent itemset Z
// and partition Z = X ∪ Y, emit X ⇒ Y when confidence(X⇒Y) =
// support(Z)/support(X) meets the threshold, pruning with the fact that
// moving an item from antecedent to consequent can only lower confidence.
package rules

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gpapriori/internal/dataset"
)

// Rule is one association rule X ⇒ Y with its quality measures.
type Rule struct {
	Antecedent []dataset.Item // X, sorted
	Consequent []dataset.Item // Y, sorted; disjoint from X
	Support    float64        // support(X∪Y) / |DB|
	Confidence float64        // support(X∪Y) / support(X)
	Lift       float64        // confidence / (support(Y)/|DB|)
}

// String renders "1 2 => 3 (sup=0.40 conf=0.80 lift=1.33)".
func (r Rule) String() string {
	var b strings.Builder
	writeItems(&b, r.Antecedent)
	b.WriteString(" => ")
	writeItems(&b, r.Consequent)
	fmt.Fprintf(&b, " (sup=%.2f conf=%.2f lift=%.2f)", r.Support, r.Confidence, r.Lift)
	return b.String()
}

func writeItems(b *strings.Builder, items []dataset.Item) {
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(it), 10))
	}
}

// Generate derives all rules meeting minConfidence from the frequent
// itemsets in rs. rs must be downward-closed (every subset of a frequent
// set present), which every miner in this repository guarantees; a missing
// subset is reported as an error. numTrans is the database size used for
// the support and lift denominators.
func Generate(rs *dataset.ResultSet, numTrans int, minConfidence float64) ([]Rule, error) {
	if numTrans <= 0 {
		return nil, fmt.Errorf("rules: numTrans %d must be positive", numTrans)
	}
	if minConfidence <= 0 || minConfidence > 1 {
		return nil, fmt.Errorf("rules: confidence %v out of (0,1]", minConfidence)
	}
	supportOf := make(map[string]int, rs.Len())
	for _, s := range rs.Sets {
		supportOf[s.Key()] = s.Support
	}
	lookup := func(items []dataset.Item) (int, error) {
		sup, ok := supportOf[dataset.NewItemset(items, 0).Key()]
		if !ok {
			return 0, fmt.Errorf("rules: result set not downward-closed: missing subset %v", items)
		}
		return sup, nil
	}

	var out []Rule
	for _, z := range rs.Sets {
		n := len(z.Items)
		if n < 2 {
			continue
		}
		// Enumerate antecedents as proper non-empty subsets of z by
		// bitmask. Frequent itemsets beyond ~20 items would overflow this
		// enumeration, but level-wise miners cannot produce them anyway.
		if n > 20 {
			return nil, fmt.Errorf("rules: itemset of %d items too large for rule expansion", n)
		}
		full := (1 << n) - 1
		for mask := 1; mask < full; mask++ {
			ante := make([]dataset.Item, 0, n)
			cons := make([]dataset.Item, 0, n)
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					ante = append(ante, z.Items[i])
				} else {
					cons = append(cons, z.Items[i])
				}
			}
			anteSup, err := lookup(ante)
			if err != nil {
				return nil, err
			}
			conf := float64(z.Support) / float64(anteSup)
			if conf < minConfidence {
				continue
			}
			consSup, err := lookup(cons)
			if err != nil {
				return nil, err
			}
			out = append(out, Rule{
				Antecedent: ante,
				Consequent: cons,
				Support:    float64(z.Support) / float64(numTrans),
				Confidence: conf,
				Lift:       conf / (float64(consSup) / float64(numTrans)),
			})
		}
	}
	SortRules(out)
	return out, nil
}

// SortRules orders rules by descending confidence, then descending
// support, then antecedent — a stable presentation order for reports.
func SortRules(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return a.String() < b.String()
	})
}
