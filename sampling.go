package gpapriori

import (
	"fmt"

	"gpapriori/internal/apriori"
	"gpapriori/internal/sampling"
)

// SamplingConfig parameterizes approximate, sampling-based mining
// (Toivonen-style: mine a sample at a lowered threshold, verify exactly
// against the full database in one scan).
type SamplingConfig struct {
	// Fraction of transactions to sample (default 0.1).
	Fraction float64
	// Slack multiplicatively lowers the sample threshold to reduce false
	// negatives (default 0.8).
	Slack float64
	// Seed drives the deterministic sampler.
	Seed int64
}

// SampledResult is the outcome of approximate mining. Supports are always
// exact (they come from the verification scan); the caveat is possible
// missing itemsets when Exact is false.
type SampledResult struct {
	Result
	// SampleSize is the number of transactions mined in the first phase.
	SampleSize int
	// Candidates is how many sample-frequent itemsets were verified.
	Candidates int
	// Exact reports whether the negative-border check certified the
	// result complete. When false, re-mine exactly (Mine) if completeness
	// matters.
	Exact bool
}

// MineSampled runs sampling-based approximate mining. Only the support
// threshold fields of cfg are used (the verification pass is bitset-based
// regardless of Algorithm).
func MineSampled(db *Database, cfg Config, sc SamplingConfig) (*SampledResult, error) {
	if db == nil || db.db.Len() == 0 {
		return nil, fmt.Errorf("gpapriori: empty database")
	}
	minSup, err := cfg.resolveSupport(db)
	if err != nil {
		return nil, err
	}
	res, err := sampling.Mine(db.db, minSup, sampling.Options{
		SampleFraction: sc.Fraction,
		Slack:          sc.Slack,
		Seed:           sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &SampledResult{
		Result:     Result{Algorithm: "sampling", MinSupport: minSup},
		SampleSize: res.SampleSize,
		Candidates: res.CandidateCount,
		Exact:      res.Exact,
	}
	res.Sets.Sort()
	out.Itemsets = make([]Itemset, res.Sets.Len())
	for i, s := range res.Sets.Sets {
		out.Itemsets[i] = Itemset{Items: s.Items, Support: s.Support}
	}
	return out, nil
}

// MineTopK returns the k most frequent itemsets of length ≥ minLen
// without a support threshold: the level-wise miner runs on a descending
// threshold schedule until k itemsets qualify. cfg selects the counting
// algorithm for the underlying runs (level-wise CPU algorithms only;
// AlgoGPApriori and depth-first miners fall back to AlgoCPUBitset).
func MineTopK(db *Database, k, minLen int, cfg Config) (*Result, error) {
	if db == nil || db.db.Len() == 0 {
		return nil, fmt.Errorf("gpapriori: empty database")
	}
	var counter apriori.Counter
	switch cfg.Algorithm {
	case AlgoBorgelt:
		counter = apriori.NewBorgelt(db.db)
	case AlgoBodon:
		counter = apriori.NewBodon(db.db)
	case AlgoGoethals:
		counter = apriori.NewGoethals(db.db)
	default:
		counter = apriori.NewCPUBitset(db.db, cfg.popcount())
	}
	rs, threshold, err := apriori.MineTopK(db.db, k, minLen, counter, apriori.Config{MaxLen: cfg.MaxLen})
	if err != nil {
		return nil, err
	}
	out := &Result{Algorithm: "top-k", MinSupport: threshold}
	out.Itemsets = make([]Itemset, rs.Len())
	for i, s := range rs.Sets {
		out.Itemsets[i] = Itemset{Items: s.Items, Support: s.Support}
	}
	return out, nil
}
