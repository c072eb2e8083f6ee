// Generation-2 horizontal counting for the pipeline (DESIGN.md §14.4).
//
// The second generation is the miner's widest fan-out: every pair of
// frequent items is a candidate, C(|F1|,2) of them, and on sparse
// shapes almost all count infrequent (T40I10D100K at the Table 2 scale
// has 50,403 pair candidates and zero frequent pairs). Intersecting a
// bitset pair per candidate pays the full vector width for each, and
// materializing each candidate as a trie node pays an allocation that
// is immediately pruned.
//
// Agrawal's AIS/Apriori pair-matrix trick counts the whole generation
// horizontally instead: project each transaction onto the frequent
// items (rank space 0..f-1; transactions are strictly ascending item
// sets, so projections are sorted and duplicate-free) and bump a
// triangular counter for every in-transaction pair. One pass, exact
// supports, and only the frequent pairs ever become nodes.
//
// Which side wins is decided by an exact cost model, not a heuristic
// flag: one cheap scan computes the true number of counter increments
// Σ C(|proj(t)|,2), which is compared against the pair-intersection
// word traffic. Dense shapes (chess, pumsb, accidents — few frequent
// items, long projections) keep the bitset path; sparse ones switch.
//
// The count is partitioned by transaction ranges into per-block
// triangular arrays; uint32 addition is commutative, so the merged
// supports are identical for every worker count and block size.
package apriori

import (
	"gpapriori/internal/bitset"
	"gpapriori/internal/trie"
)

// triMaxPairs caps the triangular array at 64MB so a huge first
// generation cannot balloon resident memory behind the miner's back.
const triMaxPairs = 16 << 20

// triBlock is the minimum transactions per counting block; it bounds
// the number of per-block arrays (and the merge cost) on small inputs.
const triBlock = 1024

// planTriangle builds the item→rank projection and runs the cost
// model. It returns (ranks, true) when horizontal pair counting is
// cheaper than pair-at-a-time bitset intersection.
func (w *pipeWorker) planTriangle(kept []*trie.Node, pairs int) ([]int32, bool) {
	r := w.r
	words := bitset.AlignedWords(r.p.v.NumTrans)
	// The per-pair bitset cost: AND+popcount over the vector plus
	// per-candidate bookkeeping. Below a trivial total, skip even the
	// costing scan — the generation is cheap either way.
	bitCost := pairs * (words + 8)
	if pairs > triMaxPairs || bitCost < 256<<10 {
		return nil, false
	}
	ranks := make([]int32, r.p.db.NumItems())
	for i := range ranks {
		ranks[i] = -1
	}
	for i, n := range kept {
		ranks[n.Item] = int32(i)
	}
	scan, incs := 0, 0
	for _, tr := range r.p.db.Transactions() {
		scan += len(tr)
		pl := 0
		for _, it := range tr {
			if ranks[it] >= 0 {
				pl++
			}
		}
		incs += pl * (pl - 1) / 2
	}
	// Triangle cost: the projection scan (paid again while counting),
	// the exact increment count, and the final frequent-pair sweep.
	return ranks, scan+incs+pairs < bitCost
}

// startTriangle fans the pair count out over transaction blocks. Block
// arrays are allocated up front so counting tasks share nothing but
// read-only projection tables.
func (w *pipeWorker) startTriangle(kept []*trie.Node, pairs int, ranks []int32) {
	r := w.r
	f := len(kept)
	items := w.s.arena.Items(f)
	for _, n := range kept {
		items = append(items, n.Item)
	}
	off := make([]int32, f)
	o := int32(0)
	for i := 0; i < f-1; i++ {
		off[i] = o
		o += int32(f - 1 - i)
	}
	nt := r.p.db.Len()
	blocks := r.p.opt.Workers
	if mx := (nt + triBlock - 1) / triBlock; blocks > mx {
		blocks = mx
	}
	if blocks < 1 {
		blocks = 1
	}
	tj := &triJob{kept: kept, items: items, ranks: ranks, off: off,
		parts: make([][]uint32, blocks), block: (nt + blocks - 1) / blocks}
	tj.pending.Store(int32(blocks))
	tasks := make([]pipeTask, 0, blocks)
	for b := 0; b < blocks; b++ {
		lo := b * tj.block
		hi := lo + tj.block
		if hi > nt {
			hi = nt
		}
		tj.parts[b] = make([]uint32, pairs)
		tasks = append(tasks, pipeTask{tj: tj, lo: lo, hi: hi, idx: b})
	}
	r.submit(w.self, tasks...)
}

// countTriangle counts pair supports for transactions [lo,hi) into the
// block's private triangular array. Projections reuse the worker's
// rank buffer; the inner pair loop is the whole hot path.
func (w *pipeWorker) countTriangle(tj *triJob, lo, hi, idx int) {
	part := tj.parts[idx]
	ranks, off := tj.ranks, tj.off
	proj := w.s.proj
	for _, tr := range w.r.p.db.Transactions()[lo:hi] {
		proj = proj[:0]
		for _, it := range tr {
			if rk := ranks[it]; rk >= 0 {
				proj = append(proj, rk)
			}
		}
		for i := 0; i+1 < len(proj); i++ {
			a := proj[i]
			row := int(off[a]) - int(a) - 1
			for _, b := range proj[i+1:] {
				part[row+int(b)]++
			}
		}
	}
	w.s.proj = proj
}

// finishTriangle runs once, after every block has counted: merge the
// block arrays, materialize only the frequent pairs as trie nodes, and
// seed their classes as precounted families so generation 3 joins
// proceed through the normal machinery.
func (w *pipeWorker) finishTriangle(tj *triJob) error {
	r := w.r
	total := tj.parts[0]
	for _, part := range tj.parts[1:] {
		for i, c := range part {
			total[i] += c
		}
	}
	f := len(tj.kept)
	minsup := uint32(r.minsup)
	var tasks []pipeTask
	for a := 0; a < f-1; a++ {
		row := total[tj.off[a] : int(tj.off[a])+f-1-a]
		nf := 0
		for _, c := range row {
			if c >= minsup {
				nf++
			}
		}
		if nf == 0 {
			continue
		}
		x := tj.kept[a]
		x.Children = w.s.arena.NodePtrs(nf)
		for j, c := range row {
			if c >= minsup {
				n := w.s.arena.NewNode(tj.items[a+1+j], 2)
				n.Support = int(c)
				x.Children = append(x.Children, n)
			}
		}
		if nf < 2 {
			continue // nothing to join under this class
		}
		// The class intersection of a pair class is its prefix item's
		// vector; the join derives the triples' vectors from it.
		fam := &pipeFamily{parent: x, k: 2, precounted: true, base: r.p.v.Vectors[x.Item]}
		fam.prefix = append(w.s.arena.Items(1), x.Item)
		tasks = append(tasks, pipeTask{fam: fam, lo: -1})
	}
	if len(tasks) > 0 {
		r.submit(w.self, tasks...)
	}
	return nil
}
