package resultio

import (
	"bytes"
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

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"1 2 5\n",        // no separator
		"1 2 : x\n",      // bad support
		" : 5\n",         // empty itemset
		"1 zz : 5\n",     // bad item
		"1 -2 : 5\n",     // negative item
		"4294967296 : 1", // overflow
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed %q", c)
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
