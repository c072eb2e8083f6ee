package bitset

import "math/bits"

// PopcountKind selects a population-count implementation. The paper's 2011
// CPU baselines predate ubiquitous hardware POPCNT use, so the benchmark
// harness can pin the CPU side to an era-faithful software popcount while
// correctness tests use the hardware one. All kinds are exact.
type PopcountKind int

const (
	// PopcountHardware uses math/bits.OnesCount64 (compiles to POPCNT).
	PopcountHardware PopcountKind = iota
	// PopcountTable8 is the classic 8-bit lookup table, the common
	// software popcount of 2011-era CPU miners.
	PopcountTable8
)

var table8 [256]uint8

func init() {
	for i := range table8 {
		table8[i] = uint8(bits.OnesCount8(uint8(i)))
	}
}

// Func returns the counting function for the kind.
func (k PopcountKind) Func() func(uint64) int {
	switch k {
	case PopcountTable8:
		return popcountTable8
	default:
		return bits.OnesCount64
	}
}

// String names the kind for reports.
func (k PopcountKind) String() string {
	switch k {
	case PopcountTable8:
		return "table8"
	default:
		return "hardware"
	}
}

func popcountTable8(w uint64) int {
	return int(table8[w&0xff]) + int(table8[w>>8&0xff]) + int(table8[w>>16&0xff]) +
		int(table8[w>>24&0xff]) + int(table8[w>>32&0xff]) + int(table8[w>>40&0xff]) +
		int(table8[w>>48&0xff]) + int(table8[w>>56])
}

// IntersectCountManyWith is IntersectCountMany with an explicit popcount
// implementation, used by the era-calibration benchmarks.
func IntersectCountManyWith(vs []*Bitset, popc func(uint64) int) int {
	if len(vs) == 0 {
		panic("bitset: IntersectCountManyWith on empty slice")
	}
	width := vs[0].nbits
	words := len(vs[0].words)
	for _, v := range vs[1:] {
		if v.nbits != width {
			panic("bitset: IntersectCountManyWith width mismatch")
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
		n += popc(acc)
	}
	return n
}
