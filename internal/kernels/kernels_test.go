package kernels

import (
	"testing"

	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/vertical"
)

func newTestDevice() *gpusim.Device {
	return gpusim.NewDevice(gpusim.TeslaT10(), 1<<22)
}

func uploadSmall(t *testing.T) (*DeviceDB, *dataset.DB) {
	t.Helper()
	db := gen.Small()
	dev := newTestDevice()
	d, err := Upload(dev, vertical.BuildBitsets(db))
	if err != nil {
		t.Fatal(err)
	}
	return d, db
}

func TestUploadGeometry(t *testing.T) {
	d, db := uploadSmall(t)
	if d.NumItems() != db.NumItems() {
		t.Fatalf("NumItems = %d, want %d", d.NumItems(), db.NumItems())
	}
	if d.NumTrans() != db.Len() {
		t.Fatalf("NumTrans = %d, want %d", d.NumTrans(), db.Len())
	}
	if d.WordsPerVector()%16 != 0 {
		t.Fatalf("WordsPerVector = %d, not 64-byte aligned in 32-bit words", d.WordsPerVector())
	}
	s := d.Device().Stats()
	wantBytes := int64(db.NumItems() * d.WordsPerVector() * 4)
	if s.H2DBytes != wantBytes {
		t.Fatalf("upload bytes = %d, want %d", s.H2DBytes, wantBytes)
	}
}

func TestUploadEmptyFails(t *testing.T) {
	if _, err := Upload(newTestDevice(), &vertical.BitsetDB{}); err == nil {
		t.Fatal("empty upload succeeded")
	}
}

func TestSupportCountsFigure2(t *testing.T) {
	d, _ := uploadSmall(t)
	// Figure 2/4 ground truths.
	cands := [][]dataset.Item{{3, 4}, {1, 5}, {2, 6}, {3, 7}}
	want := []int{4, 2, 1, 1}
	got, err := d.SupportCounts(cands, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("support(%v) = %d, want %d", cands[i], got[i], want[i])
		}
	}
}

func TestSupportCountsAllOptionVariantsAgree(t *testing.T) {
	db := gen.Random(700, 30, 0.3, 99)
	bit := vertical.BuildBitsets(db)
	cands := [][]dataset.Item{
		{0, 1}, {2, 3}, {5, 10}, {7, 29},
	}
	want := make([]int, len(cands))
	for i, c := range cands {
		want[i] = bit.SupportOf(c)
	}
	variants := []Options{
		{BlockSize: 32, Preload: false, Unroll: 1},
		{BlockSize: 64, Preload: true, Unroll: 1},
		{BlockSize: 128, Preload: false, Unroll: 4},
		{BlockSize: 256, Preload: true, Unroll: 4},
		{BlockSize: 512, Preload: true, Unroll: 8},
		{BlockSize: 100, Preload: true, Unroll: 2}, // non-power-of-two → rounded down
	}
	for _, opt := range variants {
		dev := newTestDevice()
		d, err := Upload(dev, bit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.SupportCounts(cands, opt)
		if err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("opt %+v: support(%v) = %d, want %d", opt, cands[i], got[i], want[i])
			}
		}
	}
}

func TestSupportCountsLongCandidates(t *testing.T) {
	db := gen.Random(300, 20, 0.6, 5)
	bit := vertical.BuildBitsets(db)
	dev := newTestDevice()
	d, err := Upload(dev, bit)
	if err != nil {
		t.Fatal(err)
	}
	cand := []dataset.Item{0, 1, 2, 3, 4, 5, 6}
	got, err := d.SupportCounts([][]dataset.Item{cand}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := bit.SupportOf(cand); got[0] != want {
		t.Fatalf("support = %d, want %d", got[0], want)
	}
}

func TestSupportCountsValidation(t *testing.T) {
	d, _ := uploadSmall(t)
	if _, err := d.SupportCounts([][]dataset.Item{{}}, DefaultOptions()); err == nil {
		t.Fatal("empty candidate accepted")
	}
	if _, err := d.SupportCounts([][]dataset.Item{{1, 2}, {3}}, DefaultOptions()); err == nil {
		t.Fatal("ragged generation accepted")
	}
	if _, err := d.SupportCounts([][]dataset.Item{{99}}, DefaultOptions()); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if got, err := d.SupportCounts(nil, DefaultOptions()); err != nil || got != nil {
		t.Fatalf("nil candidates: got %v, %v", got, err)
	}
}

func TestScratchMemoryRecycled(t *testing.T) {
	d, _ := uploadSmall(t)
	before := d.Device().AllocatedWords()
	for i := 0; i < 50; i++ {
		if _, err := d.SupportCounts([][]dataset.Item{{3, 4}}, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if after := d.Device().AllocatedWords(); after != before {
		t.Fatalf("device leak: %d words before, %d after", before, after)
	}
}

func TestBitsetKernelIsCoalesced(t *testing.T) {
	// A full block over a wide vector: nearly every half-warp access group
	// must coalesce into a single segment.
	db := gen.Random(4096, 8, 0.5, 13)
	dev := newTestDevice()
	d, err := Upload(dev, vertical.BuildBitsets(db))
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	if _, err := d.SupportCounts([][]dataset.Item{{0, 1}}, Options{BlockSize: 256, Preload: true, Unroll: 4}); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.UncoalescedExtra > s.Transactions/10 {
		t.Fatalf("bitset kernel uncoalesced: %d extra of %d transactions", s.UncoalescedExtra, s.Transactions)
	}
}

func TestTidsetKernelMatchesBitset(t *testing.T) {
	db := gen.Random(500, 25, 0.35, 77)
	bit := vertical.BuildBitsets(db)
	tid := vertical.BuildTidsets(db)
	cands := [][]dataset.Item{{0, 1}, {2, 3}, {4, 24}, {10, 11}}

	devA := newTestDevice()
	da, err := Upload(devA, bit)
	if err != nil {
		t.Fatal(err)
	}
	wantSup, err := da.SupportCounts(cands, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	devB := newTestDevice()
	dt, err := UploadTidsets(devB, tid)
	if err != nil {
		t.Fatal(err)
	}
	gotSup, err := dt.SupportCounts(cands, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if gotSup[i] != wantSup[i] {
			t.Fatalf("candidate %v: tidset kernel %d, bitset kernel %d", cands[i], gotSup[i], wantSup[i])
		}
	}
}

func TestTidsetKernelThreeWayJoin(t *testing.T) {
	db := gen.Small()
	dt, err := UploadTidsets(newTestDevice(), vertical.BuildTidsets(db))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dt.SupportCounts([][]dataset.Item{{3, 4, 5}, {1, 3, 4}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 2 {
		t.Fatalf("3-way joins = %v, want [3 2]", got)
	}
}

func TestTidsetKernelIsLessCoalescedThanBitset(t *testing.T) {
	// The Figure 3 claim: on identical work, the tidset join wastes far
	// more of each memory transaction than the bitset AND.
	db := gen.Random(3000, 16, 0.5, 31)
	cands := [][]dataset.Item{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}, {14, 15}}

	devBit := newTestDevice()
	dbit, err := Upload(devBit, vertical.BuildBitsets(db))
	if err != nil {
		t.Fatal(err)
	}
	devBit.ResetStats()
	if _, err := dbit.SupportCounts(cands, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	sBit := devBit.Stats()

	devTid := newTestDevice()
	dtid, err := UploadTidsets(devTid, vertical.BuildTidsets(db))
	if err != nil {
		t.Fatal(err)
	}
	devTid.ResetStats()
	if _, err := dtid.SupportCounts(cands, 128); err != nil {
		t.Fatal(err)
	}
	sTid := devTid.Stats()

	// Transactions per useful load: bitset ≈ 1/16 (16 lanes share one
	// segment); tidset ≈ 1 (every lane its own segment).
	bitRatio := float64(sBit.Transactions) / float64(sBit.GlobalLoads)
	tidRatio := float64(sTid.Transactions) / float64(sTid.GlobalLoads)
	if tidRatio < 2*bitRatio {
		t.Fatalf("expected tidset join to waste ≥2× transactions per load: bitset %.3f, tidset %.3f", bitRatio, tidRatio)
	}
}

func TestTidsetUploadValidation(t *testing.T) {
	if _, err := UploadTidsets(newTestDevice(), &vertical.TidsetDB{}); err == nil {
		t.Fatal("empty tidset DB accepted")
	}
}

func TestAtomicKernelMatchesReduction(t *testing.T) {
	db := gen.Random(600, 24, 0.35, 41)
	bit := vertical.BuildBitsets(db)
	cands := [][]dataset.Item{{0, 1}, {2, 3}, {5, 6}, {7, 8}, {20, 23}}
	dev := newTestDevice()
	d, err := Upload(dev, bit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.SupportCounts(cands, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.SupportCountsAtomic(cands, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %v: atomic %d, reduction %d", cands[i], got[i], want[i])
		}
	}
}

func TestAtomicKernelCostsMoreTransactions(t *testing.T) {
	// The ablation's point: atomicAdd serializes, the tree reduction does
	// not touch global memory at all during the sum.
	db := gen.Random(3000, 10, 0.5, 2)
	bit := vertical.BuildBitsets(db)
	cands := [][]dataset.Item{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}

	devA := newTestDevice()
	da, err := Upload(devA, bit)
	if err != nil {
		t.Fatal(err)
	}
	devA.ResetStats()
	if _, err := da.SupportCounts(cands, Options{BlockSize: 128, Preload: true, Unroll: 4}); err != nil {
		t.Fatal(err)
	}
	reduction := devA.Stats()

	devB := newTestDevice()
	dbk, err := Upload(devB, bit)
	if err != nil {
		t.Fatal(err)
	}
	devB.ResetStats()
	if _, err := dbk.SupportCountsAtomic(cands, Options{BlockSize: 128, Preload: true, Unroll: 4}); err != nil {
		t.Fatal(err)
	}
	atomic := devB.Stats()

	if atomic.UncoalescedExtra <= reduction.UncoalescedExtra {
		t.Fatalf("atomic variant not penalized: extra %d vs %d",
			atomic.UncoalescedExtra, reduction.UncoalescedExtra)
	}
}

func TestAtomicKernelValidation(t *testing.T) {
	d, _ := uploadSmall(t)
	if _, err := d.SupportCountsAtomic([][]dataset.Item{{}}, DefaultOptions()); err == nil {
		t.Fatal("empty candidate accepted")
	}
	if _, err := d.SupportCountsAtomic([][]dataset.Item{{1}, {2, 3}}, DefaultOptions()); err == nil {
		t.Fatal("ragged generation accepted")
	}
	if _, err := d.SupportCountsAtomic([][]dataset.Item{{99}}, DefaultOptions()); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if got, err := d.SupportCountsAtomic(nil, DefaultOptions()); err != nil || got != nil {
		t.Fatalf("nil candidates: %v, %v", got, err)
	}
}

func TestAutoTunePicksMinimum(t *testing.T) {
	db := gen.Random(2000, 20, 0.4, 51)
	bit := vertical.BuildBitsets(db)
	probe := [][]dataset.Item{
		{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}, {14, 15},
	}
	best, results, err := AutoTune(bit, gpusim.TeslaT10(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no probe results")
	}
	var bestSec float64
	for _, r := range results {
		if r.Options == best {
			bestSec = r.ModeledSec
		}
	}
	for _, r := range results {
		if r.ModeledSec < bestSec {
			t.Fatalf("AutoTune chose %.4g but %+v models %.4g", bestSec, r.Options, r.ModeledSec)
		}
	}
	// The chosen options must produce correct supports.
	dev := newTestDevice()
	d, err := Upload(dev, bit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.SupportCounts(probe, best)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range probe {
		if want := bit.SupportOf(c); got[i] != want {
			t.Fatalf("tuned kernel: support(%v) = %d, want %d", c, got[i], want)
		}
	}
}

func TestAutoTuneDeterministic(t *testing.T) {
	db := gen.Random(500, 12, 0.5, 9)
	bit := vertical.BuildBitsets(db)
	probe := [][]dataset.Item{{0, 1}, {2, 3}}
	a, _, err := AutoTune(bit, gpusim.TeslaT10(), probe)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := AutoTune(bit, gpusim.TeslaT10(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("AutoTune not deterministic: %+v vs %+v", a, b)
	}
}

func TestAutoTuneValidation(t *testing.T) {
	db := gen.Small()
	bit := vertical.BuildBitsets(db)
	if _, _, err := AutoTune(bit, gpusim.TeslaT10(), nil); err == nil {
		t.Fatal("empty probe accepted")
	}
}

func TestTidsetKernelDiverges(t *testing.T) {
	// The Figure 3 narrative in numbers: the tidset merge join's
	// data-dependent branches diverge across lanes; the bitset kernel has
	// no data-dependent branches at all.
	db := gen.Random(800, 16, 0.5, 77)
	cands := [][]dataset.Item{{0, 1}, {2, 3}, {4, 5}, {6, 7}}

	devT := newTestDevice()
	dt, err := UploadTidsets(devT, vertical.BuildTidsets(db))
	if err != nil {
		t.Fatal(err)
	}
	devT.ResetStats()
	if _, err := dt.SupportCounts(cands, 64); err != nil {
		t.Fatal(err)
	}
	sT := devT.Stats()
	if sT.BranchesExecuted == 0 {
		t.Fatal("tidset kernel recorded no branches")
	}
	if sT.DivergentBranches == 0 {
		t.Fatal("tidset kernel showed no divergence on random data")
	}

	devB := newTestDevice()
	dbk, err := Upload(devB, vertical.BuildBitsets(db))
	if err != nil {
		t.Fatal(err)
	}
	devB.ResetStats()
	if _, err := dbk.SupportCounts(cands, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if sB := devB.Stats(); sB.DivergentBranches != 0 {
		t.Fatalf("bitset kernel diverged: %+v", sB)
	}
}

// --- Options.normalize edge cases (Section IV.3 block-size tuning) ---

func TestNormalizeRoundsBlockToPowerOfTwo(t *testing.T) {
	dev := newTestDevice()
	for _, tc := range []struct{ in, want int }{
		{300, 256}, {511, 256}, {257, 256}, {65, 64}, {33, 32}, {2, 2}, {1, 1},
	} {
		got := Options{BlockSize: tc.in, Unroll: 1}.normalize(dev)
		if got.BlockSize != tc.want {
			t.Fatalf("normalize(BlockSize=%d).BlockSize = %d, want %d", tc.in, got.BlockSize, tc.want)
		}
	}
}

func TestNormalizeClampsToDeviceLimit(t *testing.T) {
	dev := newTestDevice()
	max := dev.Config().MaxThreadsPerBlock
	got := Options{BlockSize: max * 4, Unroll: 1}.normalize(dev)
	if got.BlockSize > max {
		t.Fatalf("normalize left BlockSize %d above device limit %d", got.BlockSize, max)
	}
	if got.BlockSize&(got.BlockSize-1) != 0 {
		t.Fatalf("clamped BlockSize %d is not a power of two", got.BlockSize)
	}
	// The Fermi-generation M2050 allows 1024: the same request must not
	// be clamped there.
	fermi := gpusim.NewDevice(gpusim.TeslaM2050(), 1<<22)
	fmax := fermi.Config().MaxThreadsPerBlock
	if g := (Options{BlockSize: fmax, Unroll: 1}.normalize(fermi)); g.BlockSize != fmax {
		t.Fatalf("Fermi normalize(BlockSize=%d).BlockSize = %d", fmax, g.BlockSize)
	}
}

func TestNormalizeDefaultsAndUnrollFloor(t *testing.T) {
	dev := newTestDevice()
	for _, in := range []Options{{}, {BlockSize: -5, Unroll: -3}, {Unroll: 0}} {
		got := in.normalize(dev)
		if got.BlockSize != 256 {
			t.Fatalf("normalize(%+v).BlockSize = %d, want default 256", in, got.BlockSize)
		}
		if got.Unroll < 1 {
			t.Fatalf("normalize(%+v).Unroll = %d, want ≥ 1", in, got.Unroll)
		}
	}
	if got := (Options{BlockSize: 128, Unroll: 4}.normalize(dev)); got.Unroll != 4 || got.BlockSize != 128 {
		t.Fatalf("normalize altered already-valid options: %+v", got)
	}
}
