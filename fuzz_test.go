package gpapriori

import (
	"testing"

	"gpapriori/internal/oracle"
)

// FuzzMineMatchesOracle is the differential check of every algorithm
// against the brute-force oracle: the final result, and for algorithms
// with generation boundaries the itemsets streamed up to every
// generation, must equal the oracle's itemsets up to that length. Each
// boundary streams only what is new, so the streamed itemsets hold no
// repeat and end as the result. Depth-first miners must never report a
// generation.
//
// Byte 0 picks the item count (1–10), byte 1 the absolute minsup (1 to
// one more than the row count, so a run where nothing is frequent is
// reachable), byte 2 maxlen (0–4) and byte 3 the pipeline's worker count
// (1–4). Every following pair of bytes is one row's item bitmask,
// little-endian, up to 64 rows.
func FuzzMineMatchesOracle(f *testing.F) {
	// The paper's Figure 2 database over items 0–7, one row mask per
	// transaction: {1,2,3,4,5} {2,3,4,5,6} {3,4,6,7} {1,3,4,5,6}.
	figure2 := []byte{0x3e, 0x00, 0x7c, 0x00, 0xd8, 0x00, 0x7a, 0x00}
	for _, params := range [][4]byte{
		{7, 1, 0, 0}, // minsup 2, unbounded, 1 worker
		{7, 0, 3, 3}, // minsup 1, maxlen 3, 4 workers
		{7, 2, 2, 1}, // minsup 3, maxlen 2, 2 workers
		{7, 4, 0, 2}, // minsup 5: nothing is frequent
	} {
		f.Add(append(params[:], figure2...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		items := 1 + int(data[0])%10
		var rows [][]Item
		for body := data[4:]; len(body) >= 2 && len(rows) < 64; body = body[2:] {
			mask := int(body[0]) | int(body[1])<<8
			row := []Item{}
			for it := 0; it < items; it++ {
				if mask&(1<<it) != 0 {
					row = append(row, Item(it))
				}
			}
			rows = append(rows, row)
		}
		db := NewDatabase(rows)
		if db.NumItems() == 0 {
			return // Mine rejects a database without items as empty.
		}
		minSup := 1 + int(data[1])%(len(rows)+1)
		maxLen := int(data[2]) % 5
		workers := 1 + int(data[3])%4

		exact := oracle.Mine(db.db, minSup)
		// upTo returns the oracle's itemsets of at most n items.
		upTo := func(n int) []Itemset {
			if maxLen > 0 {
				n = min(n, maxLen)
			}
			return toItemsets(capLen(exact, n))
		}
		want := toItemsets(capLen(exact, maxLen))

		for _, algo := range Algorithms() {
			var gens []int
			var streamed []Itemset
			cfg := Config{
				Algorithm: algo, MinSupport: minSup, MaxLen: maxLen,
				Workers: workers, BlockSize: 32,
				OnGeneration: func(gen int, frequent []Itemset) {
					if n := len(gens); n > 0 && gen <= gens[n-1] {
						t.Errorf("%s: generation %d reported after %v", algo, gen, gens)
					}
					gens = append(gens, gen)
					// Each delta is canonical and longer than the last,
					// so their concatenation is canonical too.
					streamed = append(streamed, frequent...)
					if !sameItemsets(streamed, upTo(gen)) {
						t.Errorf("%s: %d itemsets streamed up to generation %d, oracle has %d",
							algo, len(streamed), gen, len(upTo(gen)))
					}
				},
			}
			res, err := Mine(db, cfg)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if !sameItemsets(res.Itemsets, want) {
				t.Fatalf("%s: %d itemsets, oracle has %d (minsup %d, maxlen %d)",
					algo, res.Len(), len(want), minSup, maxLen)
			}
			switch {
			case !algo.HasBoundaries() && len(gens) > 0:
				t.Errorf("%s: depth-first miner reported generations %v", algo, gens)
			case algo.HasBoundaries() && len(gens) == 0:
				t.Errorf("%s: no generation reported", algo)
			case algo.HasBoundaries() && !sameItemsets(streamed, res.Itemsets):
				t.Errorf("%s: %d itemsets streamed up to generation %d, result has %d",
					algo, len(streamed), gens[len(gens)-1], res.Len())
			}
		}
	})
}
