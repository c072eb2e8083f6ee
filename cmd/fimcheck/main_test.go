package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFimcheckRandomDBAllAgree(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", "", 0, 8, 3, 10); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "all algorithms agree") {
		t.Fatalf("output:\n%s", s)
	}
	// Every algorithm line present.
	for _, algo := range []string{"gpapriori", "fpgrowth", "eclat-diffset", "pipeline"} {
		if !strings.Contains(s, algo) {
			t.Fatalf("missing %s:\n%s", algo, s)
		}
	}
}

func TestFimcheckFileInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.dat")
	if err := os.WriteFile(path, []byte("1 2 3 4 5\n2 3 4 5 6\n3 4 6 7\n1 3 4 5 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, path, "", 0, 0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "all algorithms agree") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestFimcheckValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", "", 0, 0, 0, 1); err == nil {
		t.Fatal("no source accepted")
	}
	if err := run(&out, "", "", 0, 5, 1, 0); err == nil {
		t.Fatal("missing minsup accepted")
	}
	if err := run(&out, "", "nope", 0.1, 0, 0, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRandomDBDeterministic(t *testing.T) {
	a := randomDB(6, 42)
	b := randomDB(6, 42)
	if a.Len() != b.Len() {
		t.Fatal("randomDB not deterministic")
	}
	c := randomDB(6, 43)
	same := true
	for i := 0; i < a.Len() && same; i++ {
		x, y := a.Transaction(i), c.Transaction(i)
		if len(x) != len(y) {
			same = false
			break
		}
		for j := range x {
			if x[j] != y[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical DBs")
	}
}
