package resultio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

func TestRoundTrip(t *testing.T) {
	db := gen.Small()
	rs := oracle.Mine(db, 2)
	var buf bytes.Buffer
	if err := Write(&buf, rs); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(rs) {
		t.Fatalf("round trip diff: %v", back.Diff(rs))
	}
}

func TestWriteFormatStable(t *testing.T) {
	var rs dataset.ResultSet
	rs.Add([]dataset.Item{2, 1}, 5)
	rs.Add([]dataset.Item{1}, 7)
	var buf bytes.Buffer
	if err := Write(&buf, &rs); err != nil {
		t.Fatal(err)
	}
	want := "1 : 7\n1 2 : 5\n"
	if buf.String() != want {
		t.Fatalf("format = %q, want %q", buf.String(), want)
	}
}

// TestReadRejectsMalformed: every defect is a *CorruptError naming its
// line, including a result out of canonical order, which Write never
// emits.
func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct {
		in   string
		line int
	}{
		{"1 2 5\n", 1},                          // no separator
		{"1 2 : x\n", 1},                        // bad support
		{" : 5\n", 1},                           // empty itemset
		{"1 zz : 5\n", 1},                       // bad item
		{"1 -2 : 5\n", 1},                       // negative item
		{"4294967296 : 1", 1},                   // overflow
		{"1 : 4\n3 1 : 2\n", 2},                 // items out of order
		{"1 : 4\n1 1 : 2\n", 2},                 // item repeated
		{"1 : 4\n1 2 : 2\n3 : 4\n", 3},          // itemsets out of order
		{"1 : 4\n2 : 3\n1 2 : 2\n1 2 : 2\n", 4}, // duplicate itemset
		{"1 : 4\n\n1 : 4\n", 3},                 // duplicate past a blank line
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Line != c.line {
			t.Errorf("Read(%q) = %v, want a *CorruptError on line %d", c.in, err, c.line)
		}
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	rs, err := Read(strings.NewReader("\n1 : 3\n\n2 : 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("read %d itemsets, want 2", rs.Len())
	}
}
