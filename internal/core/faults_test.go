package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gpapriori/internal/apriori"
	"gpapriori/internal/gen"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/oracle"
	"gpapriori/internal/trie"
)

func TestParseFaultSpec(t *testing.T) {
	got, err := ParseFaultSpec("dev1:kernel-fail@gen3, dev2:dead@gen2,dev0:hang=2.5@gen4,dev3:xfer-fail@gen2,dev4:hang@gen5")
	if err != nil {
		t.Fatal(err)
	}
	want := []DeviceFault{
		{Device: 1, Gen: 3, Kind: gpusim.FaultKernelFail},
		{Device: 2, Gen: 2, Kind: gpusim.FaultDead},
		{Device: 0, Gen: 4, Kind: gpusim.FaultHang, HangSeconds: 2.5},
		{Device: 3, Gen: 2, Kind: gpusim.FaultTransferFail},
		{Device: 4, Gen: 5, Kind: gpusim.FaultHang, HangSeconds: DefaultHangSeconds},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if got, err := ParseFaultSpec(""); err != nil || got != nil {
		t.Fatalf("empty spec: %v, %v", got, err)
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"dev1",                   // no kind
		"dev1:kernel-fail",       // no generation
		"1:kernel-fail@gen3",     // missing dev prefix
		"devX:kernel-fail@gen3",  // bad device index
		"dev1:explode@gen3",      // unknown kind
		"dev1:kernel-fail@3",     // missing gen prefix
		"dev1:kernel-fail@genX",  // bad generation
		"dev1:kernel-fail@gen1",  // generation below first device gen
		"dev1:hang=-2@gen3",      // negative hang
		"dev1:hang=abc@gen3",     // unparsable hang
		"dev-1:kernel-fail@gen3", // negative device
		"dev1 kernel-fail@gen3",  // malformed separator
	} {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func FuzzParseFaultSpec(f *testing.F) {
	f.Add("dev1:kernel-fail@gen3,dev2:dead@gen2")
	f.Add("dev0:hang=2.5@gen4")
	f.Add("dev0:xfer-fail@gen2")
	f.Add(",,,")
	f.Add("dev:hang=@gen")
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		// Every accepted fault must be well-formed enough to validate
		// against a sufficiently large pool.
		for _, fl := range faults {
			if fl.Gen < 2 || fl.Device < 0 || fl.Kind == gpusim.FaultNone || fl.HangSeconds < 0 {
				t.Fatalf("spec %q parsed to invalid fault %+v", spec, fl)
			}
		}
	})
}

func TestMultiOptionsValidate(t *testing.T) {
	for _, good := range []Options{{}, {Devices: 2}, {Faults: []DeviceFault{{Device: 0, Gen: 2, Kind: gpusim.FaultDead}}}} {
		if err := good.Validate(); err != nil {
			t.Fatalf("%+v: %v", good, err)
		}
	}
	bad := []Options{
		{Devices: -1},
		{Devices: 17},
		{Devices: 1, HybridCPUShare: 1},
		{Devices: 1, HybridCPUShare: -0.5},
		{Faults: []DeviceFault{{Device: 1, Gen: 2, Kind: gpusim.FaultDead}}},
		{Devices: 2, Faults: []DeviceFault{{Device: 2, Gen: 3, Kind: gpusim.FaultDead}}},
		{Devices: 2, Faults: []DeviceFault{{Device: 0, Gen: 1, Kind: gpusim.FaultDead}}},
		{Devices: 2, Faults: []DeviceFault{{Device: 0, Gen: 3}}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad option set %d accepted: %+v", i, o)
		}
	}
}

func TestSingleMinerRetriesKernelFault(t *testing.T) {
	db := gen.Random(120, 16, 0.4, 6)
	want := oracle.Mine(db, 20)
	m, err := New(db, Options{
		Faults: []DeviceFault{{Device: 0, Gen: 2, Kind: gpusim.FaultKernelFail}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(20, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(want) {
		t.Fatalf("fault-injected result differs: %v", rep.Result.Diff(want))
	}
	if rep.Faults.KernelFaults != 1 || rep.Faults.Retries != 1 {
		t.Fatalf("FaultStats = %+v", rep.Faults)
	}
	if rep.Faults.RecoverySeconds <= 0 {
		t.Fatal("recovery cost not recorded")
	}
	if rep.Device.Stall <= 0 {
		t.Fatal("fault stall missing from modeled device time")
	}
}

func TestSingleMinerWatchdogKillsHang(t *testing.T) {
	db := gen.Random(120, 16, 0.4, 6)
	want := oracle.Mine(db, 20)
	m, err := New(db, Options{
		Faults: []DeviceFault{{Device: 0, Gen: 2, Kind: gpusim.FaultHang, HangSeconds: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(20, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(want) {
		t.Fatalf("result differs after watchdog recovery: %v", rep.Result.Diff(want))
	}
	if rep.Faults.Hangs != 1 || rep.Faults.Retries != 1 {
		t.Fatalf("FaultStats = %+v", rep.Faults)
	}
	// The watchdog capped the stall at the deadline, far below the hang.
	if rep.Device.Stall >= 30 || rep.Device.Stall < watchdogSec {
		t.Fatalf("stall %v not bounded by the %vs deadline", rep.Device.Stall, watchdogSec)
	}
}

func TestMultiDeadDeviceFailsOver(t *testing.T) {
	db := gen.Random(200, 18, 0.4, 3)
	clean, err := New(db, Options{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	cleanRep, err := clean.Mine(30, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(db, Options{
		Devices: 2,
		Faults:  []DeviceFault{{Device: 1, Gen: 2, Kind: gpusim.FaultDead}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(30, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(cleanRep.Result) {
		t.Fatalf("failover result differs from clean run: %v", rep.Result.Diff(cleanRep.Result))
	}
	if rep.Faults.Failovers < 1 {
		t.Fatalf("no failover recorded: %+v", rep.Faults)
	}
	if !reflect.DeepEqual(rep.Faults.DeadDevices, []int{1}) {
		t.Fatalf("DeadDevices = %v, want [1]", rep.Faults.DeadDevices)
	}
	// The survivor picked up the dead device's share.
	if rep.CandidatesPerDevice[0] != cleanRep.CandidatesPerDevice[0]+cleanRep.CandidatesPerDevice[1] {
		t.Fatalf("surviving device counted %d candidates, want %d",
			rep.CandidatesPerDevice[0],
			cleanRep.CandidatesPerDevice[0]+cleanRep.CandidatesPerDevice[1])
	}
}

func TestMultiAllDevicesDeadDegradesToCPU(t *testing.T) {
	db := gen.Random(150, 14, 0.45, 2)
	want := oracle.Mine(db, 30)
	m, err := New(db, Options{
		Devices: 1,
		Faults:  []DeviceFault{{Device: 0, Gen: 2, Kind: gpusim.FaultDead}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(30, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(want) {
		t.Fatalf("degraded result differs: %v", rep.Result.Diff(want))
	}
	if rep.Faults.DegradedCandidates == 0 {
		t.Fatalf("no degraded candidates recorded: %+v", rep.Faults)
	}
	if !reflect.DeepEqual(rep.Faults.DeadDevices, []int{0}) {
		t.Fatalf("DeadDevices = %v, want [0]", rep.Faults.DeadDevices)
	}
}

func TestMultiTransientFaultsMatchOracle(t *testing.T) {
	db := gen.Random(200, 18, 0.4, 3)
	want := oracle.Mine(db, 30)
	m, err := New(db, Options{
		Devices: 2,
		Faults: []DeviceFault{
			{Device: 0, Gen: 2, Kind: gpusim.FaultKernelFail},
			{Device: 1, Gen: 2, Kind: gpusim.FaultTransferFail},
			{Device: 0, Gen: 3, Kind: gpusim.FaultHang, HangSeconds: 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Mine(30, apriori.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Equal(want) {
		t.Fatalf("result differs under transient faults: %v", rep.Result.Diff(want))
	}
	f := rep.Faults
	if f.KernelFaults != 1 || f.TransferFaults != 1 || f.Hangs != 1 {
		t.Fatalf("FaultStats = %+v", f)
	}
	if f.Retries != 3 {
		t.Fatalf("retries = %d, want 3 (one per transient fault)", f.Retries)
	}
	if len(f.DeadDevices) != 0 {
		t.Fatalf("transient faults killed devices: %v", f.DeadDevices)
	}
}

func TestFaultDeterminism(t *testing.T) {
	db := gen.Random(200, 18, 0.4, 3)
	run := func() (Report, error) {
		m, err := New(db, Options{
			Devices: 3,
			Faults: []DeviceFault{
				{Device: 2, Gen: 2, Kind: gpusim.FaultDead},
				{Device: 0, Gen: 3, Kind: gpusim.FaultKernelFail},
			},
		})
		if err != nil {
			return Report{}, err
		}
		return m.Mine(30, apriori.Config{})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Fatalf("same plan, different FaultStats:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if !a.Result.Equal(b.Result) {
		t.Fatalf("same plan, different results: %v", a.Result.Diff(b.Result))
	}
}

func TestMineContextCancelled(t *testing.T) {
	db := gen.Random(120, 16, 0.4, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, devices := range []int{1, 2} {
		m, err := New(db, Options{Devices: devices})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.MineContext(ctx, 20, apriori.Config{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("devices=%d: MineContext err = %v, want context.Canceled", devices, err)
		}
	}
}

// TestMineContextCancelMidRun cancels during the first counted generation
// and requires the run to stop at the next generation boundary.
func TestMineContextCancelMidRun(t *testing.T) {
	db := gen.Random(200, 18, 0.4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancellingCounter{cancel: cancel}
	_, err := apriori.MineContext(ctx, db, 2, c, apriori.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.counts != 1 {
		t.Fatalf("counted %d generations after cancel, want exactly 1", c.counts)
	}
}

// cancellingCounter cancels its context inside the first Count call and
// marks every candidate frequent, so only the generation-boundary check
// can stop the run.
type cancellingCounter struct {
	cancel context.CancelFunc
	counts int
}

func (c *cancellingCounter) Name() string { return "cancelling" }

func (c *cancellingCounter) Count(_ *trie.Trie, cands []trie.Candidate, _ int) error {
	c.counts++
	c.cancel()
	for _, cand := range cands {
		cand.Node.Support = 1 << 30
	}
	return nil
}
