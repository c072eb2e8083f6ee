package bitset

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestPopcountKindsAgree(t *testing.T) {
	kinds := []PopcountKind{PopcountHardware, PopcountTable8}
	values := []uint64{0, 1, ^uint64(0), 0xA5A5A5A5A5A5A5A5, 1 << 63, 0x00FF00FF00FF00FF}
	for _, k := range kinds {
		f := k.Func()
		for _, v := range values {
			if got, want := f(v), bits.OnesCount64(v); got != want {
				t.Fatalf("%s(%#x) = %d, want %d", k, v, got, want)
			}
		}
	}
}

func TestPopcountKindsAgreeProperty(t *testing.T) {
	table := PopcountTable8.Func()
	f := func(v uint64) bool {
		return table(v) == bits.OnesCount64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPopcountKindNames(t *testing.T) {
	cases := map[PopcountKind]string{
		PopcountHardware: "hardware",
		PopcountTable8:   "table8",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("String() = %q, want %q", k.String(), want)
		}
	}
}

func TestIntersectCountManyWithMatchesDefault(t *testing.T) {
	a := FromIndices(500, []int{1, 9, 100, 200, 499})
	b := FromIndices(500, []int{1, 100, 300, 499})
	c := FromIndices(500, []int{1, 100, 499})
	vs := []*Bitset{a, b, c}
	want := IntersectCountMany(vs)
	for _, k := range []PopcountKind{PopcountHardware, PopcountTable8} {
		if got := IntersectCountManyWith(vs, k.Func()); got != want {
			t.Fatalf("%s: IntersectCountManyWith = %d, want %d", k, got, want)
		}
	}
}

func TestIntersectCountManyWithValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty slice accepted")
		}
	}()
	IntersectCountManyWith(nil, PopcountHardware.Func())
}

func TestIntersectCountManyWithWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch accepted")
		}
	}()
	IntersectCountManyWith([]*Bitset{New(10), New(11)}, PopcountHardware.Func())
}

func TestAccessors(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.WordCount() != AlignedWords(130) {
		t.Fatalf("WordCount = %d", b.WordCount())
	}
	ts := Tidset{3, 5, 9}
	if ts.Support() != 3 {
		t.Fatalf("Support = %d", ts.Support())
	}
	if !ts.IsSorted() {
		t.Fatal("sorted tidset reported unsorted")
	}
	if (Tidset{5, 3}).IsSorted() {
		t.Fatal("unsorted tidset reported sorted")
	}
	if (Tidset{3, 3}).IsSorted() {
		t.Fatal("duplicate tidset reported sorted (must be strict)")
	}
}

func TestAndWithMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AndWith width mismatch accepted")
		}
	}()
	New(10).AndWith(New(20))
}
