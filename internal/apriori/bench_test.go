package apriori

import (
	"fmt"
	"testing"

	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// benchShape is one Table 2 workload shape at benchmark scale: the
// paper's generators with the transaction count reduced so a full mine
// fits a benchmark iteration, with density and skew preserved.
type benchShape struct {
	name   string
	db     *dataset.DB
	minSup int
}

func benchShapes(b *testing.B) []benchShape {
	b.Helper()
	shapes := []struct {
		name  string
		scale float64
		rel   float64
	}{
		{"chess", 1.0, 0.8},
		{"pumsb", 0.1, 0.8},
		{"accidents", 0.03, 0.45},
		{"T40I10D100K", 0.03, 0.05},
	}
	out := make([]benchShape, 0, len(shapes))
	for _, s := range shapes {
		db, err := gen.Paper(s.name, s.scale)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, benchShape{s.name, db, db.AbsoluteSupport(s.rel)})
	}
	return out
}

// BenchmarkMineCPUTest mines each Table 2 shape end-to-end with the
// level-wise driver and CPU_TEST's complete intersection. The
// variant=complete rows are the baseline cmd/benchjson computes every
// speedup against.
func BenchmarkMineCPUTest(b *testing.B) {
	for _, s := range benchShapes(b) {
		v := vertical.BuildBitsets(s.db)
		b.Run(fmt.Sprintf("shape=%s/variant=complete", s.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := NewCPUBitsetOver(v, bitset.PopcountHardware, CountOptions{})
				rs, err := Mine(s.db, s.minSup, c, Config{})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = rs.Len()
			}
		})
	}
}

// BenchmarkMinePipeline mines the same shapes with the work-stealing
// pipeline across the scaling sweep; cmd/benchjson turns the
// workers=1,2,4,8 rows into the per-shape scaling curve.
func BenchmarkMinePipeline(b *testing.B) {
	for _, s := range benchShapes(b) {
		v := vertical.BuildBitsets(s.db)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("shape=%s/workers=%d", s.name, workers), func(b *testing.B) {
				p := NewPipelineOver(s.db, v, PipelineOptions{Workers: workers})
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rs, err := p.Mine(s.minSup, Config{})
					if err != nil {
						b.Fatal(err)
					}
					benchSink = rs.Len()
				}
			})
		}
	}
}

// BenchmarkCountGeneration isolates the counting hot loop: one warmed-up
// CPU_TEST counter re-counts a fixed candidate generation.
func BenchmarkCountGeneration(b *testing.B) {
	db, err := gen.Paper("chess", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	v := vertical.BuildBitsets(db)
	minSup := db.AbsoluteSupport(0.85)

	// Build the k=3 generation the way the miner does: count and prune
	// the pairs, then generate the triples.
	t := trie.New()
	t.SeedFrequentItems(db.ItemSupports(), minSup)
	var cands []trie.Candidate
	for depth := 1; depth <= 2; depth++ {
		cands = t.GenerateNext(depth, minSup)
		if len(cands) == 0 {
			b.Fatalf("no candidates at k=%d", depth+1)
		}
		if depth == 2 {
			break
		}
		c := NewCPUBitsetOver(v, bitset.PopcountHardware, CountOptions{})
		if err := c.Count(t, cands, depth+1); err != nil {
			b.Fatal(err)
		}
		t.PruneInfrequent(depth+1, minSup)
	}
	b.Run("variant=complete", func(b *testing.B) {
		cnt := NewCPUBitsetOver(v, bitset.PopcountHardware, CountOptions{})
		// Warm up, then measure steady state.
		if err := cnt.Count(t, cands, 3); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cnt.Count(t, cands, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var benchSink int
