package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func testDB() *DB {
	return New([][]Item{
		{0, 1, 2}, {1, 2}, {2}, {1, 2, 3},
	})
}

func TestRemapByFrequency(t *testing.T) {
	db := testDB()
	remapped, perm := RemapByFrequency(db)
	// Old supports: 0→1, 1→3, 2→4, 3→1. New ids: 2→0, 1→1, 0→2, 3→3.
	want := []Item{2, 1, 0, 3}
	for old, new := range want {
		if perm[old] != new {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
	// Most frequent new item must be id 0 with the old maximum support.
	sup := remapped.ItemSupports()
	for i := 1; i < len(sup); i++ {
		if sup[i-1] < sup[i] {
			t.Fatalf("remapped supports not descending: %v", sup)
		}
	}
	if sup[0] != 4 {
		t.Fatalf("top support = %d, want 4", sup[0])
	}
	// Same number of transactions and total occurrences.
	if remapped.Len() != db.Len() {
		t.Fatal("transaction count changed")
	}
}

func TestInversePermutation(t *testing.T) {
	_, perm := RemapByFrequency(testDB())
	inv := InversePermutation(perm)
	for old := range perm {
		if int(inv[perm[old]]) != old {
			t.Fatalf("inverse broken at %d", old)
		}
	}
}

func TestSample(t *testing.T) {
	db := New(nil)
	for i := 0; i < 4000; i++ {
		db.Append([]Item{Item(i % 7)})
	}
	s, err := Sample(db, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() < 800 || s.Len() > 1200 {
		t.Fatalf("sample of 25%% kept %d/4000", s.Len())
	}
	again, _ := Sample(db, 0.25, 5)
	if again.Len() != s.Len() {
		t.Fatal("sampling not deterministic")
	}
	if _, err := Sample(db, 0, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := Sample(db, 1.5, 1); err == nil {
		t.Fatal("fraction >1 accepted")
	}
}

func TestFilter(t *testing.T) {
	db := testDB()
	long := Filter(db, func(tr Transaction) bool { return len(tr) >= 3 })
	if long.Len() != 2 {
		t.Fatalf("Filter kept %d, want 2", long.Len())
	}
}

func TestProjectItems(t *testing.T) {
	db := testDB()
	proj := ProjectItems(db, []Item{1, 3})
	// {0,1,2}→{1}, {1,2}→{1}, {2}→dropped, {1,2,3}→{1,3}.
	if proj.Len() != 3 {
		t.Fatalf("projection has %d transactions, want 3", proj.Len())
	}
	for i := 0; i < proj.Len(); i++ {
		for _, it := range proj.Transaction(i) {
			if it != 1 && it != 3 {
				t.Fatalf("projection leaked item %d", it)
			}
		}
	}
}

func TestDictionaryInternAndName(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("bread")
	b := d.Intern("milk")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if d.Intern("bread") != a {
		t.Fatal("re-intern changed id")
	}
	if d.Name(a) != "bread" || d.Name(b) != "milk" {
		t.Fatal("Name lookup broken")
	}
	if d.Name(Item(99)) != "item-99" {
		t.Fatalf("unknown id name = %q", d.Name(Item(99)))
	}
	if _, ok := d.Lookup("eggs"); ok {
		t.Fatal("Lookup invented an id")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if s := d.Names([]Item{a, b}); s != "bread + milk" {
		t.Fatalf("Names = %q", s)
	}
}

func TestReadNamedRoundTrip(t *testing.T) {
	in := "bread milk\nmilk eggs\n\nbread\n"
	dict := NewDictionary()
	db, err := ReadNamed(strings.NewReader(in), dict)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3", db.Len())
	}
	if dict.Len() != 3 {
		t.Fatalf("dictionary has %d names, want 3", dict.Len())
	}
	var buf bytes.Buffer
	if err := db.WriteNamed(&buf, dict); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNamed(strings.NewReader(buf.String()), dict)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatal("round trip changed shape")
	}
}

func TestReadNamedNeedsDictionary(t *testing.T) {
	if _, err := ReadNamed(strings.NewReader("a b"), nil); err == nil {
		t.Fatal("nil dictionary accepted")
	}
}
