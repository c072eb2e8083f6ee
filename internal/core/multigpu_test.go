package core

import (
	"testing"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/gen"
	"gpapriori/internal/oracle"
)

func TestMultiMatchesOracle(t *testing.T) {
	db := gen.Random(120, 16, 0.4, 6)
	want := oracle.Mine(db, 20)
	for _, devices := range []int{1, 2, 4} {
		m, err := New(db, Options{Devices: devices})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Mine(20, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("devices=%d diff: %v", devices, rep.Result.Diff(want))
		}
	}
}

func TestMultiHybridMatchesOracle(t *testing.T) {
	db := gen.Random(150, 14, 0.45, 2)
	want := oracle.Mine(db, 30)
	for _, share := range []float64{0.25, 0.5, 0.9} {
		m, err := New(db, Options{
			Devices:        2,
			HybridCPUShare: share,
			CPUPopcount:    bitset.PopcountHardware,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Mine(30, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Equal(want) {
			t.Fatalf("share=%v diff: %v", share, rep.Result.Diff(want))
		}
		if rep.CandidatesCPU == 0 {
			t.Fatalf("share=%v routed no candidates to the CPU", share)
		}
	}
}

func TestMultiWorkPartitioning(t *testing.T) {
	db := gen.Random(300, 20, 0.4, 9)
	m, err := New(db, Options{Devices: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(40, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	busy := 0
	for _, n := range rep.CandidatesPerDevice {
		total += n
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 3 devices received work: %v", busy, rep.CandidatesPerDevice)
	}
	single, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srep, err := single.Mine(40, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if total != srep.Candidates {
		t.Fatalf("multi counted %d candidates, single %d", total, srep.Candidates)
	}
}

func TestMultiGPUScalesModeledTime(t *testing.T) {
	// Enough candidates that the pool parallelism shows: 4 devices should
	// model meaningfully less generation time than 1.
	db := gen.Random(600, 28, 0.35, 5)
	minSup := db.AbsoluteSupport(0.11)

	times := map[int]float64{}
	for _, devices := range []int{1, 4} {
		m, err := New(db, Options{Devices: devices})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Mine(minSup, apriori.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result.Len() == 0 {
			t.Fatal("no results; workload too small for the scaling test")
		}
		times[devices] = rep.DeviceSeconds
	}
	if times[4] >= times[1] {
		t.Fatalf("4 devices (%.4g s) not faster than 1 (%.4g s)", times[4], times[1])
	}
}

func TestMultiValidation(t *testing.T) {
	db := gen.Small()
	if _, err := New(db, Options{Devices: -1}); err == nil {
		t.Fatal("-1 devices accepted")
	}
	if _, err := New(db, Options{Devices: 17}); err == nil {
		t.Fatal("17 devices accepted")
	}
	if _, err := New(db, Options{Devices: 1, HybridCPUShare: 1.0}); err == nil {
		t.Fatal("CPU share of 1.0 accepted")
	}
	if _, err := New(db, Options{Devices: 1, HybridCPUShare: -0.1}); err == nil {
		t.Fatal("negative CPU share accepted")
	}
}

func TestMultiReportTiming(t *testing.T) {
	db := gen.Random(200, 18, 0.4, 3)
	m, err := New(db, Options{Devices: 2, HybridCPUShare: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(30, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeviceSeconds <= 0 {
		t.Fatal("no modeled device time")
	}
	if rep.TotalSeconds() < rep.DeviceSeconds {
		t.Fatal("total dropped device time")
	}
	if len(rep.PerDevice) != 2 {
		t.Fatalf("PerDevice has %d entries", len(rep.PerDevice))
	}
	if rep.CPUCountSeconds <= 0 {
		t.Fatal("hybrid run reports no CPU counting time")
	}
	// Pool wall time (max per generation) must not exceed the sum of the
	// devices' individual totals.
	sum := 0.0
	for _, d := range rep.PerDevice {
		sum += d.Total()
	}
	if rep.DeviceSeconds > sum+1e-12 {
		t.Fatalf("pool time %.4g exceeds device-total sum %.4g", rep.DeviceSeconds, sum)
	}
}
