package bitset

import (
	"fmt"
	"math/bits"
)

// DefaultTileWords is the default word-tile width of the blocked counting
// paths: 512 × 8 bytes = 4 KiB per vector tile, so a prefix-class base
// tile plus a handful of candidate tiles fit comfortably in a 32 KiB L1
// while still amortizing the per-tile bookkeeping.
const DefaultTileWords = 512

// AndCountWith is AndCount with an explicit popcount implementation, for
// the era-calibration paths that pin the 2011 software popcount.
func (b *Bitset) AndCountWith(o *Bitset, popc func(uint64) int) int {
	if b.nbits != o.nbits {
		panic(fmt.Sprintf("bitset: AndCountWith width mismatch %d/%d", b.nbits, o.nbits))
	}
	n := 0
	for i, w := range b.words {
		n += popc(w & o.words[i])
	}
	return n
}

// IntersectInto materializes AND of all vs into dst — how a prefix class's
// shared intersection is built once before being reused for every
// candidate in the class. dst may alias vs[0].
func IntersectInto(dst *Bitset, vs []*Bitset) {
	if len(vs) == 0 {
		panic("bitset: IntersectInto on empty slice")
	}
	for _, v := range vs {
		if v.nbits != dst.nbits {
			panic(fmt.Sprintf("bitset: IntersectInto width mismatch %d/%d", dst.nbits, v.nbits))
		}
	}
	dw := dst.words
	copy(dw, vs[0].words)
	for _, v := range vs[1:] {
		vw := v.words
		for i := range dw {
			dw[i] &= vw[i]
		}
	}
}

// BatchCounter is the reusable scratch of the prefix-class counting
// path. All per-batch state (done flags, suffix popcounts) lives on the
// counter and is grown once, so steady-state counting performs zero
// allocations. A BatchCounter is not safe for concurrent use; parallel
// counters keep one per worker.
type BatchCounter struct {
	popc      func(uint64) int
	tileWords int
	done      []bool
	suffix    []int
}

// NewBatchCounter returns a counter using the given popcount
// implementation and tile width (0 = DefaultTileWords).
func NewBatchCounter(kind PopcountKind, tileWords int) *BatchCounter {
	if tileWords <= 0 {
		tileWords = DefaultTileWords
	}
	return &BatchCounter{popc: kind.Func(), tileWords: tileWords}
}

// grow readies the per-candidate scratch for a batch of n candidates over
// vectors of `words` words.
func (c *BatchCounter) grow(n, words int) {
	if cap(c.done) < n {
		c.done = make([]bool, n)
	}
	c.done = c.done[:n]
	for i := range c.done {
		c.done[i] = false
	}
	tiles := (words + c.tileWords - 1) / c.tileWords
	if cap(c.suffix) < tiles+1 {
		c.suffix = make([]int, tiles+1)
	}
	c.suffix = c.suffix[:tiles+1]
}

// CountPairs computes out[i] = popcount(base AND others[i]) for every i,
// iterating word-tiles across the batch so base's tile stays
// cache-resident while each candidate's tile streams past it — the
// prefix-class inner loop (base is the class's shared intersection,
// others are the candidates' last-item vectors).
//
// minsup > 0 enables early abort: base's per-tile popcounts bound the
// bits any candidate can still gain, and a candidate that can no longer
// reach minsup is abandoned. Aborted candidates report their partial
// count, which is guaranteed below minsup, so frequent/infrequent
// classification — and every reported frequent support — is identical to
// the exhaustive count.
//
// out must have len(others). Widths must all match base's.
func (c *BatchCounter) CountPairs(base *Bitset, others []*Bitset, minsup int, out []int) {
	if len(out) != len(others) {
		panic(fmt.Sprintf("bitset: CountPairs out length %d, want %d", len(out), len(others)))
	}
	if len(others) == 0 {
		return
	}
	words := len(base.words)
	for _, o := range others {
		if o.nbits != base.nbits {
			panic(fmt.Sprintf("bitset: CountPairs width mismatch %d/%d", base.nbits, o.nbits))
		}
	}
	popc := c.popc
	bw := base.words

	// Single-tile fast path: when the whole vector fits one tile, the
	// early-abort bound can never fire before the count is already exact,
	// so the done/suffix bookkeeping is pure overhead — and at the Table 2
	// benchmark scales every shape's vectors fit one tile.
	if words <= c.tileWords {
		for i, o := range others {
			ow := o.words
			n := 0
			for j, w := range bw {
				n += popc(w & ow[j])
			}
			out[i] = n
		}
		return
	}
	c.grow(len(others), words)

	// Suffix popcounts of base per tile: suffix[t] is the number of base
	// bits at or after tile t — the tightest cheap bound on what a
	// candidate can still gain (count_i ≤ current + suffix[t+1]).
	tiles := len(c.suffix) - 1
	c.suffix[tiles] = 0
	for t := tiles - 1; t >= 0; t-- {
		lo := t * c.tileWords
		hi := lo + c.tileWords
		if hi > words {
			hi = words
		}
		n := 0
		for _, w := range bw[lo:hi] {
			n += bits.OnesCount64(w)
		}
		c.suffix[t] = c.suffix[t+1] + n
	}

	for i := range out {
		out[i] = 0
	}
	live := len(others)
	for t := 0; t < tiles && live > 0; t++ {
		lo := t * c.tileWords
		hi := lo + c.tileWords
		if hi > words {
			hi = words
		}
		tile := bw[lo:hi]
		rest := c.suffix[t+1]
		for i, o := range others {
			if c.done[i] {
				continue
			}
			ow := o.words[lo:hi]
			n := out[i]
			for j, w := range tile {
				n += popc(w & ow[j])
			}
			out[i] = n
			if minsup > 0 && n+rest < minsup {
				c.done[i] = true
				live--
			}
		}
	}
}
