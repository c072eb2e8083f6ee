package dataset

import (
	"bytes"
	"strings"
	"testing"
)

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
