package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAlignedWords(t *testing.T) {
	cases := []struct{ bits, want int }{
		{0, 0},
		{1, 8},
		{64, 8},
		{512, 8},
		{513, 16},
		{1024, 16},
		{1025, 24},
	}
	for _, c := range cases {
		if got := AlignedWords(c.bits); got != c.want {
			t.Errorf("AlignedWords(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
}

func TestAlignedWordsIs64ByteMultiple(t *testing.T) {
	for n := 0; n < 5000; n += 37 {
		w := AlignedWords(n)
		if w%AlignWords != 0 {
			t.Fatalf("AlignedWords(%d) = %d not a multiple of %d", n, w, AlignWords)
		}
		if w*WordBits < n {
			t.Fatalf("AlignedWords(%d) = %d words cannot hold %d bits", n, w, n)
		}
	}
}

func TestAlignedWordsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative bit count")
		}
	}()
	AlignedWords(-1)
}

func TestSetTestClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Test(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(100)
	b.Set(42)
	b.Set(42)
	if b.Count() != 1 {
		t.Fatalf("Count = %d after double Set, want 1", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for index %d", i)
				}
			}()
			b.Set(i)
		}()
	}
}

func TestCount(t *testing.T) {
	b := New(1000)
	want := 0
	for i := 0; i < 1000; i += 7 {
		b.Set(i)
		want++
	}
	if got := b.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestFromIndicesAndIndicesRoundTrip(t *testing.T) {
	idx := []int{3, 17, 64, 65, 99}
	b := FromIndices(100, idx)
	got := b.Indices()
	if len(got) != len(idx) {
		t.Fatalf("Indices len = %d, want %d", len(got), len(idx))
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Indices[%d] = %d, want %d", i, got[i], idx[i])
		}
	}
}

func TestAnd(t *testing.T) {
	x := FromIndices(200, []int{1, 5, 64, 150})
	y := FromIndices(200, []int{5, 64, 151})
	z := New(200)
	z.And(x, y)
	want := []int{5, 64}
	got := z.Indices()
	if len(got) != len(want) {
		t.Fatalf("And result %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("And result %v, want %v", got, want)
		}
	}
}

func TestAndWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	New(10).And(New(10), New(11))
}

func TestAndWith(t *testing.T) {
	x := FromIndices(100, []int{1, 2, 3})
	y := FromIndices(100, []int{2, 3, 4})
	x.AndWith(y)
	if x.Count() != 2 || !x.Test(2) || !x.Test(3) {
		t.Fatalf("AndWith produced %v", x.Indices())
	}
}

func TestAndCountMatchesMaterializedAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(600)
		x, y := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				x.Set(i)
			}
			if rng.Intn(2) == 0 {
				y.Set(i)
			}
		}
		z := New(n)
		z.And(x, y)
		if x.AndCount(y) != z.Count() {
			t.Fatalf("AndCount = %d, materialized = %d (n=%d)", x.AndCount(y), z.Count(), n)
		}
	}
}

func TestIntersectCountMany(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3, 4, 5})
	b := FromIndices(100, []int{2, 3, 4, 5, 6})
	c := FromIndices(100, []int{3, 4, 5, 6, 7})
	if got := IntersectCountMany([]*Bitset{a, b, c}); got != 3 {
		t.Fatalf("IntersectCountMany = %d, want 3", got)
	}
	if got := IntersectCountMany([]*Bitset{a}); got != 5 {
		t.Fatalf("single-vector IntersectCountMany = %d, want 5", got)
	}
}

func TestIntersectCountManyEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty slice")
		}
	}()
	IntersectCountMany(nil)
}

func TestCloneIndependence(t *testing.T) {
	b := FromIndices(64, []int{1, 2})
	c := b.Clone()
	c.Set(3)
	if b.Test(3) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Test(1) || !c.Test(2) {
		t.Fatal("Clone lost bits")
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(50, []int{1, 2})
	b := FromIndices(50, []int{1, 2})
	c := FromIndices(50, []int{1, 3})
	d := FromIndices(51, []int{1, 2})
	if !a.Equal(b) {
		t.Fatal("equal bitsets reported unequal")
	}
	if a.Equal(c) {
		t.Fatal("different bits reported equal")
	}
	if a.Equal(d) {
		t.Fatal("different widths reported equal")
	}
}

func TestString(t *testing.T) {
	b := FromIndices(5, []int{0, 3})
	if got := b.String(); got != "10010" {
		t.Fatalf("String = %q, want %q", got, "10010")
	}
}

func TestPaddingStaysZero(t *testing.T) {
	// Width 65 needs 2 words logically but 16 aligned; padding must stay
	// zero or Count over-reports.
	b := New(65)
	b.Set(64)
	if b.Count() != 1 {
		t.Fatalf("Count = %d, want 1", b.Count())
	}
	for i, w := range b.Words()[2:] {
		if w != 0 {
			t.Fatalf("padding word %d nonzero: %x", i+2, w)
		}
	}
}

// Property: popcount of AND equals size of index-set intersection.
func TestPropertyAndCountEqualsSetIntersection(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const width = 1 << 16
		bx, by := New(width), New(width)
		setX := map[int]bool{}
		setY := map[int]bool{}
		for _, v := range xs {
			bx.Set(int(v))
			setX[int(v)] = true
		}
		for _, v := range ys {
			by.Set(int(v))
			setY[int(v)] = true
		}
		want := 0
		for v := range setX {
			if setY[v] {
				want++
			}
		}
		return bx.AndCount(by) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Indices is strictly ascending and round-trips through
// FromIndices.
func TestPropertyIndicesSortedRoundTrip(t *testing.T) {
	f := func(xs []uint16) bool {
		const width = 1 << 16
		b := New(width)
		for _, v := range xs {
			b.Set(int(v))
		}
		idx := b.Indices()
		for i := 1; i < len(idx); i++ {
			if idx[i-1] >= idx[i] {
				return false
			}
		}
		return FromIndices(width, idx).Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: complete intersection over k vectors equals pairwise chained
// AndWith.
func TestPropertyCompleteIntersectionEqualsChainedAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(400)
		k := 1 + rng.Intn(5)
		vs := make([]*Bitset, k)
		for i := range vs {
			vs[i] = New(n)
			for j := 0; j < n; j++ {
				if rng.Intn(3) != 0 {
					vs[i].Set(j)
				}
			}
		}
		acc := vs[0].Clone()
		for _, v := range vs[1:] {
			acc.AndWith(v)
		}
		if got := IntersectCountMany(vs); got != acc.Count() {
			t.Fatalf("IntersectCountMany = %d, chained = %d", got, acc.Count())
		}
	}
}

// TestNewSlab: slab vectors are independent full-width bitsets laid
// end to end, so setting every bit of one leaves its neighbours clear.
func TestNewSlab(t *testing.T) {
	const nbits = 130
	slab := NewSlab(nbits, 3)
	if len(slab) != 3 {
		t.Fatalf("NewSlab(%d, 3) returned %d vectors", nbits, len(slab))
	}
	for i := range slab {
		if slab[i].Len() != nbits || slab[i].WordCount() != AlignedWords(nbits) {
			t.Fatalf("vector %d: %d bits in %d words, want %d in %d",
				i, slab[i].Len(), slab[i].WordCount(), nbits, AlignedWords(nbits))
		}
	}
	for i := 0; i < nbits; i++ {
		slab[1].Set(i)
	}
	if slab[0].Count() != 0 || slab[1].Count() != nbits || slab[2].Count() != 0 {
		t.Fatalf("counts %d/%d/%d after filling vector 1, want 0/%d/0",
			slab[0].Count(), slab[1].Count(), slab[2].Count(), nbits)
	}
	next := unsafe.Add(unsafe.Pointer(&slab[0].Words()[0]), 8*AlignedWords(nbits))
	if unsafe.Pointer(&slab[1].Words()[0]) != next {
		t.Fatal("vector 1 does not follow vector 0 in one allocation")
	}
	if len(NewSlab(nbits, 0)) != 0 {
		t.Fatal("NewSlab with no vectors returned some")
	}
}

// randBitset builds a bitset of nbits with each bit set with probability p.
func randBitset(nbits int, p float64, rng *rand.Rand) *Bitset {
	b := New(nbits)
	for i := 0; i < nbits; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

func TestIntersectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nbits := range []int{1, 63, 64, 65, 511, 513, 4097} {
		vs := []*Bitset{
			randBitset(nbits, 0.7, rng),
			randBitset(nbits, 0.5, rng),
			randBitset(nbits, 0.9, rng),
		}
		dst := New(nbits)
		IntersectInto(dst, vs)
		if got, want := dst.Count(), IntersectCountMany(vs); got != want {
			t.Fatalf("nbits=%d: IntersectInto count %d, want %d", nbits, got, want)
		}
		for i := 0; i < nbits; i++ {
			want := vs[0].Test(i) && vs[1].Test(i) && vs[2].Test(i)
			if dst.Test(i) != want {
				t.Fatalf("nbits=%d bit %d: got %v want %v", nbits, i, dst.Test(i), want)
			}
		}
	}
}

func TestIntersectIntoAliasesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randBitset(300, 0.6, rng)
	b := randBitset(300, 0.6, rng)
	want := a.AndCount(b)
	dst := a.Clone()
	IntersectInto(dst, []*Bitset{dst, b})
	if dst.Count() != want {
		t.Fatalf("aliased IntersectInto count %d, want %d", dst.Count(), want)
	}
}
