// Package bitset implements the "static bitset" vertical transaction-list
// representation at the heart of GPApriori (Zhang, Zhang & Bakos, CLUSTER
// 2011), together with the classical tidset representation it replaces.
//
// A static bitset is a fixed-width bit vector with one bit per transaction:
// bit t of item i's vector is set iff transaction t contains item i. The
// support of a candidate itemset {a,b,c} is then
//
//	popcount(V_a AND V_b AND V_c)
//
// The paper aligns every vector on a 64-byte boundary so that a warp of GPU
// threads reading consecutive 32-bit words issues one coalesced memory
// transaction. We reproduce that layout: vectors are backed by []uint64
// whose word count is rounded up to a multiple of 8 words (64 bytes), and
// the padding tail is guaranteed zero so popcounts never over-count.
package bitset

import (
	"fmt"
	"math/bits"
)

// WordBits is the width in bits of one storage word.
const WordBits = 64

// AlignWords is the word granularity of the 64-byte alignment the paper's
// kernel requires for coalesced access (8 × 64-bit words = 64 bytes).
const AlignWords = 8

// AlignedWords returns the number of 64-bit words needed to hold nbits bits,
// rounded up to the 64-byte (8-word) boundary used by the GPU kernel.
func AlignedWords(nbits int) int {
	if nbits < 0 {
		panic(fmt.Sprintf("bitset: negative bit count %d", nbits))
	}
	words := (nbits + WordBits - 1) / WordBits
	return (words + AlignWords - 1) / AlignWords * AlignWords
}

// Bitset is a static, fixed-width bit vector. The zero value is an empty
// vector of width 0; use New to create one with capacity.
type Bitset struct {
	words []uint64
	nbits int // logical width in bits; words beyond it are zero padding
}

// New returns a Bitset able to hold nbits bits, all clear, with 64-byte
// aligned backing storage.
func New(nbits int) *Bitset {
	return &Bitset{words: make([]uint64, AlignedWords(nbits)), nbits: nbits}
}

// NewSlab returns n Bitsets of nbits bits each, all clear, carved from
// one contiguous allocation: bitset i occupies words [i*W, (i+1)*W) of
// the slab, W = AlignedWords(nbits) — the item-major layout the GPU
// kernel reads, at the cost of two allocations for the whole set.
func NewSlab(nbits, n int) []Bitset {
	w := AlignedWords(nbits)
	words := make([]uint64, n*w)
	out := make([]Bitset, n)
	for i := range out {
		out[i] = Bitset{words: words[i*w : (i+1)*w : (i+1)*w], nbits: nbits}
	}
	return out
}

// FromIndices builds a Bitset of width nbits with the given bit positions
// set. Indices out of range cause a panic; duplicates are permitted.
func FromIndices(nbits int, indices []int) *Bitset {
	b := New(nbits)
	for _, i := range indices {
		b.Set(i)
	}
	return b
}

// Len returns the logical width of the vector in bits.
func (b *Bitset) Len() int { return b.nbits }

// WordCount returns the number of backing 64-bit words including alignment
// padding. This is the length the GPU kernel iterates over.
func (b *Bitset) WordCount() int { return len(b.words) }

// Words exposes the backing words (including zero padding). Callers must
// not set bits at or beyond Len; doing so corrupts popcounts.
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.checkIndex(i)
	b.words[i/WordBits] |= 1 << (uint(i) % WordBits)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.checkIndex(i)
	b.words[i/WordBits] &^= 1 << (uint(i) % WordBits)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	b.checkIndex(i)
	return b.words[i/WordBits]&(1<<(uint(i)%WordBits)) != 0
}

func (b *Bitset) checkIndex(i int) {
	if i < 0 || i >= b.nbits {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.nbits))
	}
}

// Count returns the number of set bits (the support, when the vector is a
// vertical transaction list).
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), nbits: b.nbits}
	copy(c.words, b.words)
	return c
}

// Equal reports whether two bitsets have the same width and identical bits.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.nbits != o.nbits {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// And stores x AND y into b. All three must share the same width.
func (b *Bitset) And(x, y *Bitset) {
	if x.nbits != y.nbits || b.nbits != x.nbits {
		panic(fmt.Sprintf("bitset: And width mismatch %d/%d/%d", b.nbits, x.nbits, y.nbits))
	}
	for i := range b.words {
		b.words[i] = x.words[i] & y.words[i]
	}
}

// AndWith ANDs o into b in place.
func (b *Bitset) AndWith(o *Bitset) {
	if b.nbits != o.nbits {
		panic(fmt.Sprintf("bitset: AndWith width mismatch %d/%d", b.nbits, o.nbits))
	}
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// AndCount returns popcount(b AND o) without materializing the result —
// the hot loop of CPU-side complete intersection (the paper's CPU_TEST).
func (b *Bitset) AndCount(o *Bitset) int {
	if b.nbits != o.nbits {
		panic(fmt.Sprintf("bitset: AndCount width mismatch %d/%d", b.nbits, o.nbits))
	}
	n := 0
	for i, w := range b.words {
		n += bits.OnesCount64(w & o.words[i])
	}
	return n
}

// IntersectCountMany returns popcount(AND of all vs) — complete intersection
// over k first-generation vectors, as GPApriori computes a k-candidate's
// support. It panics on an empty slice or mismatched widths.
func IntersectCountMany(vs []*Bitset) int {
	if len(vs) == 0 {
		panic("bitset: IntersectCountMany on empty slice")
	}
	width := vs[0].nbits
	words := len(vs[0].words)
	for _, v := range vs[1:] {
		if v.nbits != width {
			panic(fmt.Sprintf("bitset: IntersectCountMany width mismatch %d/%d", width, v.nbits))
		}
	}
	n := 0
	for w := 0; w < words; w++ {
		acc := vs[0].words[w]
		for _, v := range vs[1:] {
			acc &= v.words[w]
			if acc == 0 {
				break
			}
		}
		n += bits.OnesCount64(acc)
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

// Indices returns the positions of all set bits in ascending order — the
// tidset equivalent of this bitset. The output is pre-sized from a
// popcount pass, so dense vectors build their index list in a single
// allocation instead of growing from a small guess.
func (b *Bitset) Indices() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			out = append(out, wi*WordBits+tz)
			w &= w - 1
		}
	}
	return out
}

// String renders the bitset as a binary string, bit 0 first, for debugging
// small vectors.
func (b *Bitset) String() string {
	buf := make([]byte, b.nbits)
	for i := 0; i < b.nbits; i++ {
		if b.Test(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
