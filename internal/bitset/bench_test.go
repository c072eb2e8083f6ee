package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWidths spans a cache-resident vector, an L2-sized one, and a
// streaming one (bits ≈ transactions, so these bracket the paper's
// Table 2 databases after scaling).
var benchWidths = []int{1 << 12, 1 << 16, 1 << 20}

func benchBitsets(nbits, n int, p float64) []*Bitset {
	rng := rand.New(rand.NewSource(42))
	out := make([]*Bitset, n)
	for i := range out {
		out[i] = randBitset(nbits, p, rng)
	}
	return out
}

func BenchmarkAndCount(b *testing.B) {
	for _, nbits := range benchWidths {
		b.Run(fmt.Sprintf("bits=%d", nbits), func(b *testing.B) {
			vs := benchBitsets(nbits, 2, 0.5)
			b.SetBytes(int64(len(vs[0].words) * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = vs[0].AndCount(vs[1])
			}
		})
	}
}

func BenchmarkIntersectCountMany(b *testing.B) {
	for _, nbits := range benchWidths {
		for _, k := range []int{3, 6} {
			b.Run(fmt.Sprintf("bits=%d/k=%d", nbits, k), func(b *testing.B) {
				vs := benchBitsets(nbits, k, 0.7)
				b.SetBytes(int64(k * len(vs[0].words) * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink = IntersectCountMany(vs)
				}
			})
		}
	}
}

func BenchmarkIndices(b *testing.B) {
	for _, density := range []float64{0.01, 0.5} {
		b.Run(fmt.Sprintf("density=%v", density), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			v := randBitset(1<<16, density, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkIdx = v.Indices()
			}
		})
	}
}

var (
	sink    int
	sinkIdx []int
)
