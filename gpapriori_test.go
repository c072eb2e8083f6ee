package gpapriori

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// figure2 returns the paper's Figure 2 example database.
func figure2() *Database {
	return NewDatabase([][]Item{
		{1, 2, 3, 4, 5},
		{2, 3, 4, 5, 6},
		{3, 4, 6, 7},
		{1, 3, 4, 5, 6},
	})
}

func TestAllAlgorithmsAgreeOnFigure2(t *testing.T) {
	db := figure2()
	var ref *Result
	for _, algo := range Algorithms() {
		res, err := Mine(db, Config{Algorithm: algo, MinSupport: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Len() != ref.Len() {
			t.Fatalf("%s found %d sets, %s found %d", algo, res.Len(), ref.Algorithm, ref.Len())
		}
		for i := range res.Itemsets {
			a, b := res.Itemsets[i], ref.Itemsets[i]
			if a.Support != b.Support || len(a.Items) != len(b.Items) {
				t.Fatalf("%s itemset %d = %v, ref %v", algo, i, a, b)
			}
			for j := range a.Items {
				if a.Items[j] != b.Items[j] {
					t.Fatalf("%s itemset %d = %v, ref %v", algo, i, a, b)
				}
			}
		}
	}
	if ref.Len() == 0 {
		t.Fatal("reference run found nothing")
	}
}

func TestRelativeSupport(t *testing.T) {
	db := figure2()
	abs, err := Mine(db, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Mine(db, Config{RelativeSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rel.MinSupport != 2 || rel.Len() != abs.Len() {
		t.Fatalf("relative run: minsup %d, %d sets; absolute: %d sets",
			rel.MinSupport, rel.Len(), abs.Len())
	}
}

func TestConfigValidation(t *testing.T) {
	db := figure2()
	if _, err := Mine(db, Config{}); err == nil {
		t.Fatal("config without threshold accepted")
	}
	if _, err := Mine(db, Config{Algorithm: "nope", MinSupport: 2}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Mine(nil, Config{MinSupport: 2}); err == nil {
		t.Fatal("nil database accepted")
	}
	// Only empty transactions: no items, so every algorithm agrees with
	// the device path, which has no bitset to upload.
	blank := NewDatabase([][]Item{{}, {}})
	for _, algo := range Algorithms() {
		if _, err := Mine(blank, Config{Algorithm: algo, MinSupport: 1}); err == nil {
			t.Errorf("%s accepted a database without items", algo)
		}
	}
}

func TestMaxLenAppliesToAllAlgorithms(t *testing.T) {
	db := figure2()
	for _, algo := range Algorithms() {
		res, err := Mine(db, Config{Algorithm: algo, MinSupport: 1, MaxLen: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for _, s := range res.Itemsets {
			if len(s.Items) > 2 {
				t.Fatalf("%s returned itemset %v beyond MaxLen", algo, s.Items)
			}
		}
	}
}

func TestGPAprioriTimingFields(t *testing.T) {
	db := figure2()
	res, err := Mine(db, Config{Algorithm: AlgoGPApriori, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceSeconds <= 0 {
		t.Fatal("GPApriori run has no modeled device time")
	}
	if res.DeviceBreakdown["transfer"] <= 0 {
		t.Fatalf("breakdown missing transfer time: %v", res.DeviceBreakdown)
	}
	if res.TotalSeconds() < res.DeviceSeconds {
		t.Fatal("TotalSeconds dropped device time")
	}
	cpu, err := Mine(db, Config{Algorithm: AlgoBorgelt, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cpu.DeviceSeconds != 0 || cpu.DeviceBreakdown != nil {
		t.Fatal("CPU run reports device time")
	}
}

func TestKernelKnobsAccepted(t *testing.T) {
	db := figure2()
	res, err := Mine(db, Config{
		Algorithm: AlgoGPApriori, MinSupport: 2,
		BlockSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Mine(db, Config{Algorithm: AlgoGPApriori, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != ref.Len() {
		t.Fatal("kernel knobs changed results")
	}
}

// TestEraPopcount: EraPopcount swaps in the 2011 table popcount for the
// two counters it configures (CPU_TEST and GPApriori's hybrid CPU
// share), the pipeline ignores it, and none of the three changes a
// result. The database spans several words, so every byte of the table
// popcount is exercised.
func TestEraPopcount(t *testing.T) {
	db, err := GeneratePaperDataset("chess", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Algorithm: AlgoCPUBitset, RelativeSupport: 0.9},
		{Algorithm: AlgoGPApriori, RelativeSupport: 0.9, HybridCPUShare: 0.5},
		{Algorithm: AlgoPipeline, RelativeSupport: 0.9},
	} {
		want, err := Mine(db, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Algorithm, err)
		}
		cfg.EraPopcount = true
		got, err := Mine(db, cfg)
		if err != nil {
			t.Fatalf("%s era: %v", cfg.Algorithm, err)
		}
		if want.Len() == 0 || !sameItemsets(got.Itemsets, want.Itemsets) {
			t.Fatalf("%s: era popcount changed the result (%d itemsets, default %d)", cfg.Algorithm, got.Len(), want.Len())
		}
		if cfg.HybridCPUShare > 0 && got.DeviceBreakdown["cpu-cands"] == 0 {
			t.Fatalf("%s: the hybrid CPU share counted no candidates", cfg.Algorithm)
		}
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	db := figure2()
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() || back.NumItems() != db.NumItems() {
		t.Fatal("round trip changed shape")
	}
}

func TestReadDatabaseError(t *testing.T) {
	if _, err := ReadDatabase(strings.NewReader("1 x\n")); err == nil {
		t.Fatal("bad input accepted")
	}
}

func TestDatabaseStats(t *testing.T) {
	st := figure2().Stats()
	if st.NumTrans != 4 || st.MaxLength != 5 || st.NumItems != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPaperDatasetsAccessible(t *testing.T) {
	names := PaperDatasets()
	if len(names) != 4 {
		t.Fatalf("PaperDatasets = %v", names)
	}
	db, err := GeneratePaperDataset("chess", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("generated dataset empty")
	}
	if _, err := GeneratePaperDataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestGenerateQuest(t *testing.T) {
	db := GenerateQuest(100, 300, 10, 4, 7)
	st := db.Stats()
	if st.NumTrans < 290 || st.AvgLength < 6 || st.AvgLength > 14 {
		t.Fatalf("quest stats = %+v", st)
	}
}

func TestRulesEndToEnd(t *testing.T) {
	db := figure2()
	res, err := Mine(db, Config{Algorithm: AlgoFPGrowth, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GenerateRules(res, db, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules at confidence 0.7")
	}
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Confidence < rs[i].Confidence {
			t.Fatal("rules unsorted")
		}
	}
	lifted := FilterRulesByLift(rs, 1.0)
	if len(lifted) > len(rs) {
		t.Fatal("filter grew the rule set")
	}
	if s := rs[0].String(); !strings.Contains(s, "=>") {
		t.Fatalf("rule String = %q", s)
	}
}

func TestGenerateRulesValidation(t *testing.T) {
	if _, err := GenerateRules(nil, figure2(), 0.5); err == nil {
		t.Fatal("nil result accepted")
	}
	db := figure2()
	res, err := Mine(db, Config{MinSupport: 2, MaxLen: 2, Algorithm: AlgoBodon})
	if err != nil {
		t.Fatal(err)
	}
	// MaxLen-bounded results are still downward-closed, so this works.
	if _, err := GenerateRules(res, db, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDeviceAndHybridViaPublicAPI(t *testing.T) {
	db := figure2()
	ref, err := Mine(db, Config{Algorithm: AlgoGPApriori, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Mine(db, Config{
		Algorithm: AlgoGPApriori, MinSupport: 2,
		Devices: 3, HybridCPUShare: 0.4, BlockSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Len() != ref.Len() {
		t.Fatalf("multi found %d itemsets, single %d", multi.Len(), ref.Len())
	}
	if multi.DeviceBreakdown["devices"] != 3 {
		t.Fatalf("breakdown = %v", multi.DeviceBreakdown)
	}
	// One device or a hybrid pool, every GPApriori run reports the same
	// breakdown keys.
	keys := func(m map[string]float64) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	want := []string{"compute", "cpu-cands", "cpu-share", "devices", "kernel", "launch", "memory", "transfer"}
	for _, res := range []*Result{ref, multi} {
		if got := keys(res.DeviceBreakdown); !slices.Equal(got, want) {
			t.Errorf("breakdown keys %v, want %v", got, want)
		}
	}
}

func TestDatabaseAccessorsAndFileIO(t *testing.T) {
	db := figure2()
	if got := db.Transaction(0); len(got) != 5 || got[0] != 1 {
		t.Fatalf("Transaction(0) = %v", got)
	}
	if got := db.AbsoluteSupport(0.5); got != 2 {
		t.Fatalf("AbsoluteSupport(0.5) = %d", got)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fig2.dat.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if err := db.Write(zw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("gzip file round trip: %d vs %d transactions", back.Len(), db.Len())
	}
	if _, err := ReadDatabaseFile(filepath.Join(dir, "missing.dat")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPublicDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("tea")
	b := d.Intern("scone")
	if d.Intern("tea") != a || a == b {
		t.Fatal("intern identity broken")
	}
	if d.Name(a) != "tea" || d.Len() != 2 {
		t.Fatalf("Name/Len: %q %d", d.Name(a), d.Len())
	}
	if s := d.Names([]Item{a, b}); s != "tea + scone" {
		t.Fatalf("Names = %q", s)
	}
	db, dict, err := ReadNamedDatabase(strings.NewReader("tea scone\nscone jam\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 || dict.Len() != 3 {
		t.Fatalf("named read: %d trans, %d names", db.Len(), dict.Len())
	}
	if _, _, err := ReadNamedDatabase(badReader{}); err == nil {
		t.Fatal("reader error swallowed")
	}
}

// badReader always fails, for error-path coverage.
type badReader struct{}

func (badReader) Read([]byte) (int, error) { return 0, fmt.Errorf("boom") }

func TestMineWithFaultsMatchesCleanRun(t *testing.T) {
	db := figure2()
	clean, err := Mine(db, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults != nil {
		t.Fatalf("clean run reported faults: %+v", clean.Faults)
	}
	faulty, err := Mine(db, Config{
		Algorithm:  AlgoGPApriori,
		MinSupport: 2,
		Devices:    2,
		Faults:     "dev0:kernel-fail@gen2,dev1:dead@gen3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty.Itemsets) != len(clean.Itemsets) {
		t.Fatalf("fault run found %d itemsets, clean %d", len(faulty.Itemsets), len(clean.Itemsets))
	}
	for i := range clean.Itemsets {
		a, b := clean.Itemsets[i], faulty.Itemsets[i]
		if a.Support != b.Support || fmt.Sprint(a.Items) != fmt.Sprint(b.Items) {
			t.Fatalf("itemset %d differs: clean %v:%d, faulty %v:%d", i, a.Items, a.Support, b.Items, b.Support)
		}
	}
	if faulty.Faults == nil {
		t.Fatal("fault run reported no FaultStats")
	}
	if faulty.Faults.KernelFaults != 1 || len(faulty.Faults.DeadDevices) != 1 {
		t.Fatalf("FaultStats = %+v", faulty.Faults)
	}
}

// TestFaultRunsDoNotPoisonLaterRuns: every run builds its own devices,
// so a device lost in one run is not the device of the next. After
// three runs lose device 0, a fault-free run still counts on its device
// and reports no fault activity.
func TestFaultRunsDoNotPoisonLaterRuns(t *testing.T) {
	db := jobsDB(3)
	for i := 0; i < 3; i++ {
		res, err := Mine(db, Config{
			Algorithm: AlgoGPApriori, MinSupport: 6,
			Faults: "dev0:dead@gen2",
		})
		if err != nil {
			t.Fatalf("fault run %d: %v", i, err)
		}
		if res.Faults == nil || fmt.Sprint(res.Faults.DeadDevices) != "[0]" {
			t.Fatalf("fault run %d: faults %v, want device 0 lost", i, res.Faults)
		}
	}
	clean, err := Mine(db, Config{Algorithm: AlgoGPApriori, MinSupport: 6})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults != nil {
		t.Errorf("fault-free run after fault runs reports faults: %v", clean.Faults)
	}
	if clean.DeviceSeconds <= 0 {
		t.Errorf("fault-free run after fault runs modeled %v device seconds, want > 0", clean.DeviceSeconds)
	}
}

// TestMineRejectsBadFaultSpec: the fault spec is validated for every
// algorithm, and device-pool settings on an algorithm without a device
// pool are an error rather than a silently fault-free run.
func TestMineRejectsBadFaultSpec(t *testing.T) {
	for _, cfg := range []Config{
		{Faults: "garbage"},
		{Algorithm: AlgoGPApriori, Faults: "garbage"},
		{Algorithm: AlgoEclat, Faults: "garbage"},
		{Faults: "dev0:dead@gen2"},
		{Devices: 2},
		{Algorithm: AlgoPipeline, HybridCPUShare: 0.25},
		{Algorithm: AlgoCPUBitset, Devices: 2, Faults: "dev1:dead@gen2"},
	} {
		cfg.MinSupport = 2
		if _, err := Mine(figure2(), cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}

func TestMineContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{AlgoGPApriori, AlgoCPUBitset, AlgoEclat} {
		if _, err := MineContext(ctx, figure2(), Config{Algorithm: algo, MinSupport: 2}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
}
