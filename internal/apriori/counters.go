package apriori

import (
	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// CPUBitset is the paper's CPU_TEST: single-threaded complete intersection
// over the static-bitset vertical layout — exactly the work the GPU kernel
// performs, executed on the host.
type CPUBitset struct {
	v    *vertical.BitsetDB
	popc func(uint64) int
	kind bitset.PopcountKind
}

// NewCPUBitset builds the counter over db. kind selects the popcount
// implementation (PopcountHardware for correctness work,
// PopcountTable8 for 2011-era performance fidelity).
func NewCPUBitset(db *dataset.DB, kind bitset.PopcountKind) *CPUBitset {
	return NewCPUBitsetOver(vertical.BuildBitsets(db), kind, CountOptions{})
}

// CountOptions has no fields. It remains only because the perfbench
// module, which builds against this package, passes CountOptions{} to
// NewCPUBitsetOver.
type CountOptions struct{}

// NewCPUBitsetOver builds the counter over an already-transposed vertical
// database, so callers that hold one (core.Miner's CPU share) do not
// transpose twice.
func NewCPUBitsetOver(v *vertical.BitsetDB, kind bitset.PopcountKind, _ CountOptions) *CPUBitset {
	return &CPUBitset{v: v, popc: kind.Func(), kind: kind}
}

// Name implements Counter.
func (c *CPUBitset) Name() string {
	return "CPU_TEST(bitset," + c.kind.String() + ")"
}

// Count implements Counter by complete intersection per candidate.
func (c *CPUBitset) Count(_ *trie.Trie, cands []trie.Candidate, k int) error {
	vs := make([]*bitset.Bitset, k)
	for _, cand := range cands {
		for i, item := range cand.Items {
			vs[i] = c.v.Vectors[item]
		}
		cand.Node.Support = bitset.IntersectCountManyWith(vs, c.popc)
	}
	return nil
}

// Borgelt is the tidset-vertical strategy of Borgelt's Apriori: each
// candidate's tidset is computed as (prefix tidset) ∩ (last item's
// tidset), reusing the previous generation's materialized tidsets instead
// of intersecting k lists from scratch.
type Borgelt struct {
	v *vertical.TidsetDB
	// prev maps the previous generation's itemset keys to their tidsets;
	// cur collects the generation being counted.
	prev map[string]bitset.Tidset
	cur  map[string]bitset.Tidset
}

// NewBorgelt builds the counter over db.
func NewBorgelt(db *dataset.DB) *Borgelt {
	return &Borgelt{v: vertical.BuildTidsets(db)}
}

// Name implements Counter.
func (b *Borgelt) Name() string { return "Borgelt(tidset)" }

// Count implements Counter.
func (b *Borgelt) Count(_ *trie.Trie, cands []trie.Candidate, k int) error {
	b.cur = make(map[string]bitset.Tidset, len(cands))
	for _, cand := range cands {
		last := cand.Items[k-1]
		var t bitset.Tidset
		if k == 2 {
			t = b.v.Lists[cand.Items[0]].Intersect(b.v.Lists[last])
		} else {
			prefix := dataset.NewItemset(cand.Items[:k-1], 0).Key()
			pt, ok := b.prev[prefix]
			if !ok {
				// Prefix tidset not cached (first call at this depth after
				// a restart): rebuild it from scratch.
				pt = b.v.Lists[cand.Items[0]]
				for _, it := range cand.Items[1 : k-1] {
					pt = pt.Intersect(b.v.Lists[it])
				}
			}
			t = pt.Intersect(b.v.Lists[last])
		}
		cand.Node.Support = len(t)
		if len(t) > 0 {
			b.cur[dataset.NewItemset(cand.Items, 0).Key()] = t
		}
	}
	b.prev = b.cur
	b.cur = nil
	return nil
}

// Bodon is the horizontal trie-counting strategy: every transaction is
// walked through the candidate trie, incrementing each depth-k node it
// contains.
type Bodon struct {
	db *dataset.DB
}

// NewBodon builds the counter over db.
func NewBodon(db *dataset.DB) *Bodon { return &Bodon{db: db} }

// Name implements Counter.
func (b *Bodon) Name() string { return "Bodon(trie)" }

// Count implements Counter.
func (b *Bodon) Count(t *trie.Trie, cands []trie.Candidate, k int) error {
	t.ResetSupports(k)
	for _, tr := range b.db.Transactions() {
		if len(tr) >= k {
			t.CountTransaction(tr, k)
		}
	}
	return nil
}

// Goethals is Agrawal's original candidate-list counting over the
// horizontal database: for every transaction, test every candidate by
// subset check. Quadratic in practice and the slowest strategy on dense
// data — the paper shows it only on T40I10D100K for exactly this reason.
type Goethals struct {
	db *dataset.DB
}

// NewGoethals builds the counter over db.
func NewGoethals(db *dataset.DB) *Goethals { return &Goethals{db: db} }

// Name implements Counter.
func (g *Goethals) Name() string { return "Goethals(horizontal)" }

// Count implements Counter.
func (g *Goethals) Count(_ *trie.Trie, cands []trie.Candidate, k int) error {
	for _, cand := range cands {
		cand.Node.Support = 0
	}
	for _, tr := range g.db.Transactions() {
		if len(tr) < k {
			continue
		}
		for _, cand := range cands {
			if tr.ContainsAll(cand.Items) {
				cand.Node.Support++
			}
		}
	}
	return nil
}
