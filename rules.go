package gpapriori

import (
	"fmt"

	"gpapriori/internal/dataset"
	"gpapriori/internal/rules"
)

// Rule is an association rule X ⇒ Y derived from frequent itemsets:
// X and Y are disjoint sorted item lists, Support is support(X∪Y)/|DB|,
// Confidence support(X∪Y)/support(X) and Lift Confidence/(support(Y)/
// |DB|). String renders "1 2 => 3 (sup=0.40 conf=0.80 lift=1.33)", and
// the JSON tags fix the rule objects of gpapriori -json.
type Rule = rules.Rule

// GenerateRules derives every association rule with confidence ≥
// minConfidence from a mining result, sorted by descending confidence.
// The result must come from an unbounded (MaxLen == 0) run so the itemset
// collection is downward-closed.
func GenerateRules(res *Result, db *Database, minConfidence float64) ([]Rule, error) {
	if res == nil || db == nil {
		return nil, fmt.Errorf("gpapriori: GenerateRules needs a result and its database")
	}
	return rules.Generate(&dataset.ResultSet{Sets: res.Itemsets}, db.Len(), minConfidence)
}

// FilterRulesByLift keeps rules whose lift is at least minLift.
func FilterRulesByLift(rs []Rule, minLift float64) []Rule {
	out := make([]Rule, 0, len(rs))
	for _, r := range rs {
		if r.Lift >= minLift {
			out = append(out, r)
		}
	}
	return out
}
