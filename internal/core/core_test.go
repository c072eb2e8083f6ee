package core

import (
	"math"
	"testing"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/oracle"
)

func newMiner(t *testing.T, db *dataset.DB) *Miner {
	t.Helper()
	m, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatchesOracleFigure2(t *testing.T) {
	db := gen.Small()
	m := newMiner(t, db)
	for _, minSup := range []int{1, 2, 3, 4} {
		want := oracle.Mine(db, minSup)
		rep, err := m.Mine(minSup, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("minsup=%d diff: %v", minSup, rep.Result.Diff(want))
		}
	}
}

func TestMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		db := gen.Random(80, 14, 0.35, seed)
		m := newMiner(t, db)
		want := oracle.Mine(db, 7)
		rep, err := m.Mine(7, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("seed %d diff: %v", seed, rep.Result.Diff(want))
		}
	}
}

func TestMatchesCPUBaselinesOnDense(t *testing.T) {
	cfg := gen.Chess()
	cfg.NumTrans = 200
	db := gen.AttributeValue(cfg)
	minSup := db.AbsoluteSupport(0.85)
	m := newMiner(t, db)
	rep, err := m.Mine(minSup, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := apriori.Mine(db, minSup, apriori.NewCPUBitset(db, bitset.PopcountHardware), apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(cpu) {
		t.Fatalf("GPU vs CPU diff: %v", rep.Result.Diff(cpu))
	}
	if rep.Result.Len() == 0 {
		t.Fatal("dense mine found nothing")
	}
}

func TestReportAccounting(t *testing.T) {
	db := gen.Random(200, 20, 0.4, 9)
	m := newMiner(t, db)
	rep, err := m.Mine(40, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generations < 1 {
		t.Fatalf("Generations = %d", rep.Generations)
	}
	if rep.Candidates < 1 {
		t.Fatal("no candidates counted on device")
	}
	if rep.DeviceStats.KernelLaunches < int64(rep.Generations) {
		t.Fatalf("launches %d < generations %d", rep.DeviceStats.KernelLaunches, rep.Generations)
	}
	if rep.Device.Total() <= 0 {
		t.Fatal("modeled device time is zero")
	}
	if rep.TotalSeconds() < rep.Device.Total() {
		t.Fatal("TotalSeconds dropped device time")
	}
	// On one device the per-generation pool time telescopes to the
	// whole run's modeled total.
	if d := math.Abs(rep.DeviceSeconds - rep.Device.Total()); d > 1e-12*rep.Device.Total() {
		t.Fatalf("DeviceSeconds %v differs from Device.Total() %v", rep.DeviceSeconds, rep.Device.Total())
	}
	// One block per candidate, exactly.
	if rep.DeviceStats.BlocksRun != int64(rep.Candidates) {
		t.Fatalf("blocks %d != candidates %d", rep.DeviceStats.BlocksRun, rep.Candidates)
	}
}

func TestStatsResetBetweenRuns(t *testing.T) {
	db := gen.Small()
	m := newMiner(t, db)
	a, err := m.Mine(2, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Mine(2, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.DeviceStats.KernelLaunches != b.DeviceStats.KernelLaunches {
		t.Fatalf("stats leak across runs: %d vs %d launches",
			a.DeviceStats.KernelLaunches, b.DeviceStats.KernelLaunches)
	}
}

func TestEmptyDatabaseRejected(t *testing.T) {
	if _, err := New(dataset.New(nil), Options{}); err == nil {
		t.Fatal("empty DB accepted")
	}
}

func TestKernelVariantsProduceSameResults(t *testing.T) {
	db := gen.Random(150, 18, 0.4, 12)
	want := oracle.Mine(db, 25)
	variants := []kernels.Options{
		{BlockSize: 64, Preload: false, Unroll: 1},
		{BlockSize: 256, Preload: true, Unroll: 4},
		{BlockSize: 512, Preload: true, Unroll: 8},
	}
	for _, kv := range variants {
		m, err := New(db, Options{Kernel: kv})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Mine(25, apriori.Config{})
		if err != nil {
			t.Fatalf("variant %+v: %v", kv, err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("variant %+v diff: %v", kv, rep.Result.Diff(want))
		}
	}
}

func TestCustomDeviceConfig(t *testing.T) {
	cfg := gpusim.TeslaT10()
	cfg.HostParallelism = 1 // serial host execution; results identical
	db := gen.Small()
	m, err := New(db, Options{Device: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(2, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(oracle.Mine(db, 2)) {
		t.Fatal("serial-host run differs")
	}
}

func TestModeledTimeDeterministicAcrossRuns(t *testing.T) {
	db := gen.Random(300, 20, 0.35, 8)
	m := newMiner(t, db)
	a, err := m.Mine(30, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Mine(30, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Device != b.Device {
		t.Fatalf("modeled time differs across identical runs: %v vs %v", a.Device, b.Device)
	}
}
