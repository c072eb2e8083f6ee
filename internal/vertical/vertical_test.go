package vertical

import (
	"testing"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
)

// figure2DB is the worked example from the paper's Figure 2.
func figure2DB() *dataset.DB { return gen.Small() }

func TestBuildTidsetsFigure2(t *testing.T) {
	v := BuildTidsets(figure2DB())
	// Paper Figure 2(B): item 1 → {1,4} (1-indexed) = tids {0,3} here.
	cases := map[dataset.Item][]uint32{
		1: {0, 3},
		2: {0, 1},
		3: {0, 1, 2, 3},
		4: {0, 1, 2, 3},
		5: {0, 1, 3},
		6: {1, 2, 3},
		7: {2},
	}
	for item, want := range cases {
		got := v.Lists[item]
		if len(got) != len(want) {
			t.Fatalf("item %d tidset = %v, want %v", item, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d tidset = %v, want %v", item, got, want)
			}
		}
	}
}

func TestBuildBitsetsFigure2(t *testing.T) {
	v := BuildBitsets(figure2DB())
	// Paper Figure 2(B) bitsets: item 1 → 1001, item 6 → 0111.
	if got := v.Vectors[1].String()[:4]; got != "1001" {
		t.Fatalf("item 1 bitset = %s, want 1001", got)
	}
	if got := v.Vectors[6].String()[:4]; got != "0111" {
		t.Fatalf("item 6 bitset = %s, want 0111", got)
	}
	if got := v.Vectors[3].String()[:4]; got != "1111" {
		t.Fatalf("item 3 bitset = %s, want 1111", got)
	}
}

func TestSupportOfMatchesAcrossLayouts(t *testing.T) {
	db := gen.Random(300, 25, 0.25, 17)
	tid := BuildTidsets(db)
	bit := BuildBitsets(db)
	sets := [][]dataset.Item{
		{0}, {1, 2}, {3, 4, 5}, {0, 10, 20}, {24}, {},
	}
	for _, s := range sets {
		a, b := tid.SupportOf(s), bit.SupportOf(s)
		if a != b {
			t.Fatalf("SupportOf(%v): tidset %d, bitset %d", s, a, b)
		}
		// Brute-force oracle.
		want := 0
		for _, tr := range db.Transactions() {
			if tr.ContainsAll(s) {
				want++
			}
		}
		if a != want {
			t.Fatalf("SupportOf(%v) = %d, brute force %d", s, a, want)
		}
	}
}

func TestSupportOfEmptyItemset(t *testing.T) {
	db := figure2DB()
	if got := BuildTidsets(db).SupportOf(nil); got != 4 {
		t.Fatalf("tidset SupportOf(∅) = %d, want 4", got)
	}
	if got := BuildBitsets(db).SupportOf(nil); got != 4 {
		t.Fatalf("bitset SupportOf(∅) = %d, want 4", got)
	}
}

func TestSupportOfDisjointShortCircuit(t *testing.T) {
	db := dataset.New([][]dataset.Item{{0}, {1}})
	v := BuildTidsets(db)
	if got := v.SupportOf([]dataset.Item{0, 1}); got != 0 {
		t.Fatalf("disjoint SupportOf = %d", got)
	}
}

func TestCheckAgrees(t *testing.T) {
	db := gen.Random(100, 15, 0.4, 23)
	if err := Check(BuildTidsets(db), BuildBitsets(db)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	db := figure2DB()
	tid := BuildTidsets(db)
	bit := BuildBitsets(db)
	bit.Vectors[3].Clear(0)
	if err := Check(tid, bit); err == nil {
		t.Fatal("Check missed a corrupted bitset")
	}
}

func TestFlattenLayout(t *testing.T) {
	db := figure2DB()
	v := BuildBitsets(db)
	flat := v.Flatten()
	w := v.WordsPerVector()
	if len(flat) != len(v.Vectors)*w {
		t.Fatalf("Flatten length = %d, want %d", len(flat), len(v.Vectors)*w)
	}
	for i, vec := range v.Vectors {
		for j, word := range vec.Words() {
			if flat[i*w+j] != word {
				t.Fatalf("Flatten word (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	db := figure2DB()
	bit := BuildBitsets(db)
	tid := BuildTidsets(db)
	// 8 items × 8 aligned words × 8 bytes = 512 bytes.
	if got := bit.MemoryBytes(); got != 512 {
		t.Fatalf("bitset MemoryBytes = %d, want 512", got)
	}
	// Total item occurrences in Figure 2 = 19 tids × 4 bytes.
	if got := tid.MemoryBytes(); got != 19*4 {
		t.Fatalf("tidset MemoryBytes = %d, want 76", got)
	}
}

func TestWordsPerVectorAlignment(t *testing.T) {
	db := gen.Random(1000, 5, 0.5, 3)
	v := BuildBitsets(db)
	if v.WordsPerVector()%8 != 0 {
		t.Fatalf("WordsPerVector = %d not 64-byte aligned", v.WordsPerVector())
	}
	empty := &BitsetDB{}
	if empty.WordsPerVector() != 0 {
		t.Fatal("empty BitsetDB WordsPerVector != 0")
	}
}

// TestEstimateBitsetBytes: the admission-control estimate must agree
// exactly with what BuildBitsets allocates.
func TestEstimateBitsetBytes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db := gen.Random(97, 13, 0.4, seed)
		got := EstimateBitsetBytes(db)
		want := int64(BuildBitsets(db).MemoryBytes())
		if got != want {
			t.Errorf("seed %d: EstimateBitsetBytes = %d, built layout = %d", seed, got, want)
		}
	}
}

// TestFrequentBitsetsMatchFullLayout: at minsup 1 (every occurring item
// frequent), a typical minsup, and one no item reaches, each frequent
// item's vector equals BuildBitsets' bit for bit and no other item has
// one; the slab is exactly EstimateFrequentBytes.
func TestFrequentBitsetsMatchFullLayout(t *testing.T) {
	db := gen.Random(300, 40, 0.3, 11)
	full := BuildBitsets(db)
	supports := db.ItemSupports()
	for _, minSup := range []int{1, db.AbsoluteSupport(0.3), db.Len() + 1} {
		vecs := FrequentBitsets(db, supports, minSup)
		if len(vecs) != db.NumItems() {
			t.Fatalf("minsup %d: %d entries, want one per item (%d)", minSup, len(vecs), db.NumItems())
		}
		frequent := 0
		var bytes int64
		for item, v := range vecs {
			if supports[item] < minSup {
				if v != nil {
					t.Fatalf("minsup %d: infrequent item %d (support %d) has a vector", minSup, item, supports[item])
				}
				continue
			}
			frequent++
			if v == nil || !v.Equal(full.Vectors[item]) {
				t.Fatalf("minsup %d: frequent item %d's vector differs from BuildBitsets'", minSup, item)
			}
			bytes += int64(v.WordCount() * 8)
		}
		if want := EstimateFrequentBytes(db, supports, minSup); bytes != want {
			t.Errorf("minsup %d: slab %d bytes, EstimateFrequentBytes %d", minSup, bytes, want)
		}
		switch {
		case minSup == 1 && frequent != db.Stats().NumItems:
			t.Errorf("minsup 1: %d frequent items, want every occurring item (%d)", frequent, db.Stats().NumItems)
		case minSup > db.Len() && frequent != 0:
			t.Errorf("minsup %d: %d frequent items, want none", minSup, frequent)
		case minSup > 1 && minSup <= db.Len() && (frequent == 0 || frequent == db.NumItems()):
			t.Errorf("minsup %d: %d of %d items frequent, want a proper subset", minSup, frequent, db.NumItems())
		}
	}
}
