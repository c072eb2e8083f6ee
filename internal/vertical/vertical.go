// Package vertical transposes a horizontal transaction database into the
// two vertical layouts the paper compares (Figure 2): tidsets (one sorted
// transaction-id array per item) and static bitsets (one fixed-width bit
// vector per item, 64-byte aligned). The bitset layout is what GPApriori
// uploads to GPU memory as the "first generation" vertical lists.
package vertical

import (
	"fmt"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
)

// TidsetDB is the tidset vertical layout: Lists[i] is the sorted list of
// transaction ids containing item i.
type TidsetDB struct {
	Lists    []bitset.Tidset
	NumTrans int
}

// BuildTidsets transposes db into tidset form in one scan.
func BuildTidsets(db *dataset.DB) *TidsetDB {
	v := &TidsetDB{Lists: make([]bitset.Tidset, db.NumItems()), NumTrans: db.Len()}
	// Pre-size each list from the item supports to avoid re-allocation.
	for item, sup := range db.ItemSupports() {
		v.Lists[item] = make(bitset.Tidset, 0, sup)
	}
	for tid, tr := range db.Transactions() {
		for _, it := range tr {
			v.Lists[it] = append(v.Lists[it], uint32(tid))
		}
	}
	return v
}

// Support returns the support of a single item.
func (v *TidsetDB) Support(item dataset.Item) int { return len(v.Lists[item]) }

// SupportOf computes the support of a sorted itemset by chained merge-join
// intersection, starting from the shortest list (the standard CPU
// optimization the paper's Borgelt baseline relies on).
func (v *TidsetDB) SupportOf(items []dataset.Item) int {
	if len(items) == 0 {
		return v.NumTrans
	}
	// Find the shortest list to anchor the chain.
	shortest := 0
	for i, it := range items {
		if len(v.Lists[it]) < len(v.Lists[items[shortest]]) {
			shortest = i
		}
	}
	acc := v.Lists[items[shortest]]
	for i, it := range items {
		if i == shortest {
			continue
		}
		acc = acc.Intersect(v.Lists[it])
		if len(acc) == 0 {
			return 0
		}
	}
	return len(acc)
}

// BitsetDB is the static-bitset vertical layout of the paper: Vectors[i]
// has bit t set iff transaction t contains item i. All vectors share one
// width (NumTrans bits) rounded up to the 64-byte boundary.
type BitsetDB struct {
	Vectors  []*bitset.Bitset
	NumTrans int
}

// BuildBitsets transposes db into static-bitset form.
func BuildBitsets(db *dataset.DB) *BitsetDB {
	v := &BitsetDB{Vectors: make([]*bitset.Bitset, db.NumItems()), NumTrans: db.Len()}
	for i := range v.Vectors {
		v.Vectors[i] = bitset.New(db.Len())
	}
	for tid, tr := range db.Transactions() {
		for _, it := range tr {
			v.Vectors[it].Set(tid)
		}
	}
	return v
}

// Support returns the support of a single item.
func (v *BitsetDB) Support(item dataset.Item) int { return v.Vectors[item].Count() }

// SupportOf computes the support of an itemset by complete intersection —
// popcount(AND of all item vectors) — the CPU reference for what the GPU
// kernel computes (the paper's CPU_TEST).
func (v *BitsetDB) SupportOf(items []dataset.Item) int {
	if len(items) == 0 {
		return v.NumTrans
	}
	vs := make([]*bitset.Bitset, len(items))
	for i, it := range items {
		vs[i] = v.Vectors[it]
	}
	return bitset.IntersectCountMany(vs)
}

// WordsPerVector returns the aligned word count of each vector — the
// amount of device memory one item's vertical list occupies, in 64-bit
// words.
func (v *BitsetDB) WordsPerVector() int {
	if len(v.Vectors) == 0 {
		return 0
	}
	return v.Vectors[0].WordCount()
}

// Flatten packs all vectors into one contiguous []uint64 (item-major):
// exactly the layout copied into simulated device memory, where vector i
// occupies words [i*W, (i+1)*W).
func (v *BitsetDB) Flatten() []uint64 {
	w := v.WordsPerVector()
	out := make([]uint64, len(v.Vectors)*w)
	for i, vec := range v.Vectors {
		copy(out[i*w:(i+1)*w], vec.Words())
	}
	return out
}

// MemoryBytes reports the total bytes of the layout — the quantity the
// paper trades against the tidset layout's compactness.
func (v *BitsetDB) MemoryBytes() int { return len(v.Vectors) * v.WordsPerVector() * 8 }

// EstimateBitsetBytes models the bitset layout's footprint for db without
// building it: one aligned bit-vector per item, exactly what BuildBitsets
// allocates. It bounds what any one job transposes, whatever its support.
func EstimateBitsetBytes(db *dataset.DB) int64 {
	return int64(db.NumItems()) * int64(bitset.AlignedWords(db.Len())) * 8
}

// FrequentBitsets transposes only the items of db whose support reaches
// minSup: the first generation GPApriori keeps resident, and by downward
// closure the only vectors a run at minSup ever reads. supports are db's
// item supports (db.ItemSupports()). The result is indexed by item id; a
// frequent item's vector is carved from one slab (bitset.NewSlab), and
// every other item's entry is nil. It is not a BitsetDB, whose methods
// assume every item has a vector.
func FrequentBitsets(db *dataset.DB, supports []int, minSup int) []*bitset.Bitset {
	vecs := make([]*bitset.Bitset, len(supports))
	slab := bitset.NewSlab(db.Len(), countFrequent(supports, minSup))
	if len(slab) == 0 {
		return vecs
	}
	next := 0
	for item, sup := range supports {
		if sup >= minSup {
			vecs[item] = &slab[next]
			next++
		}
	}
	// Bits are set straight in the words: tid is always below the
	// width, and Set's per-bit range check cost about a third of the
	// scan's time on accidents.
	for tid, tr := range db.Transactions() {
		w, bit := tid/bitset.WordBits, uint64(1)<<(tid%bitset.WordBits)
		for _, it := range tr {
			if v := vecs[it]; v != nil {
				v.Words()[w] |= bit
			}
		}
	}
	return vecs
}

// EstimateFrequentBytes models FrequentBitsets' slab without building
// it: one aligned bit-vector per item whose support reaches minSup.
// Admission control sizes jobs with this estimate, so it must agree
// exactly with what FrequentBitsets allocates.
func EstimateFrequentBytes(db *dataset.DB, supports []int, minSup int) int64 {
	return int64(countFrequent(supports, minSup)) * int64(bitset.AlignedWords(db.Len())) * 8
}

// countFrequent returns how many items' supports reach minSup.
func countFrequent(supports []int, minSup int) int {
	n := 0
	for _, sup := range supports {
		if sup >= minSup {
			n++
		}
	}
	return n
}

// MemoryBytes reports the total bytes of the tidset layout (4 bytes per
// transaction id).
func (v *TidsetDB) MemoryBytes() int {
	total := 0
	for _, l := range v.Lists {
		total += 4 * len(l)
	}
	return total
}

// Check verifies the two layouts agree item by item — used by integration
// tests and the fimcheck tool.
func Check(t *TidsetDB, b *BitsetDB) error {
	if len(t.Lists) != len(b.Vectors) {
		return fmt.Errorf("vertical: item counts differ: %d vs %d", len(t.Lists), len(b.Vectors))
	}
	for i := range t.Lists {
		if len(t.Lists[i]) != b.Vectors[i].Count() {
			return fmt.Errorf("vertical: item %d support differs: tidset %d, bitset %d",
				i, len(t.Lists[i]), b.Vectors[i].Count())
		}
		for _, tid := range t.Lists[i] {
			if !b.Vectors[i].Test(int(tid)) {
				return fmt.Errorf("vertical: item %d tid %d missing from bitset", i, tid)
			}
		}
	}
	return nil
}
