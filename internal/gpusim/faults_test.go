package gpusim

import (
	"errors"
	"testing"
)

func faultTestDevice(t *testing.T) *Device {
	t.Helper()
	cfg := TeslaT10()
	cfg.HostParallelism = 2
	return NewDevice(cfg, 1<<16)
}

// noopKernel touches one word so the launch produces observable stats.
func noopKernel(buf Buffer) Kernel {
	return func(ctx *Ctx) {
		if ctx.GlobalThreadID() == 0 {
			ctx.StoreGlobal(buf, 0, 1)
		}
	}
}

func TestTryOpsWithoutInjectorMatchPlainOps(t *testing.T) {
	d := faultTestDevice(t)
	buf, err := d.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.TryCopyToDevice(buf, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TryLaunch(LaunchConfig{Grid: 1, Block: 32}, noopKernel(buf), 1.0); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, 1)
	if err := d.TryCopyFromDevice(out, buf); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("kernel result %d, want 1", out[0])
	}
	if st := d.Stats(); st.StallSeconds != 0 {
		t.Fatalf("fault-free run accumulated stall %v", st.StallSeconds)
	}
}

func TestArmedKernelFaultFiresOnce(t *testing.T) {
	d := faultTestDevice(t)
	buf, _ := d.Malloc(64)
	in := d.EnableFaults()
	in.Arm(FaultEvent{Kind: FaultKernelFail})

	_, err := d.TryLaunch(LaunchConfig{Grid: 1, Block: 32}, noopKernel(buf), 0)
	if !errors.Is(err, ErrKernelFault) {
		t.Fatalf("first launch err = %v, want ErrKernelFault", err)
	}
	if _, err := d.TryLaunch(LaunchConfig{Grid: 1, Block: 32}, noopKernel(buf), 0); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	rec := in.Record()
	if rec.Injected != 1 || rec.KernelFaults != 1 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.StallSeconds <= 0 {
		t.Fatal("failed launch cost no modeled time")
	}
	if d.ModeledTime().Stall != rec.StallSeconds {
		t.Fatalf("modeled stall %v != record %v", d.ModeledTime().Stall, rec.StallSeconds)
	}
}

func TestTransferFaultAbortsCopy(t *testing.T) {
	d := faultTestDevice(t)
	buf, _ := d.Malloc(64)
	in := d.EnableFaults()
	in.Arm(FaultEvent{Kind: FaultTransferFail})

	if err := d.TryCopyToDevice(buf, []uint32{42}); !errors.Is(err, ErrTransferFault) {
		t.Fatalf("err = %v, want ErrTransferFault", err)
	}
	out := make([]uint32, 1)
	if err := d.TryCopyFromDevice(out, buf); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 {
		t.Fatal("aborted transfer left partial data")
	}
	if rec := in.Record(); rec.TransferFaults != 1 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestHangUnderAndOverDeadline(t *testing.T) {
	d := faultTestDevice(t)
	buf, _ := d.Malloc(64)
	in := d.EnableFaults()

	// Hang longer than the watchdog deadline: killed at the deadline.
	in.Arm(FaultEvent{Kind: FaultHang, HangSeconds: 10})
	_, err := d.TryLaunch(LaunchConfig{Grid: 1, Block: 32}, noopKernel(buf), 0.5)
	if !errors.Is(err, ErrWatchdogTimeout) {
		t.Fatalf("err = %v, want ErrWatchdogTimeout", err)
	}
	if rec := in.Record(); rec.StallSeconds != 0.5 {
		t.Fatalf("watchdog stall %v, want 0.5 (the deadline)", rec.StallSeconds)
	}

	// Hang shorter than the deadline: the launch completes, just late.
	in.Arm(FaultEvent{Kind: FaultHang, HangSeconds: 0.2})
	if _, err := d.TryLaunch(LaunchConfig{Grid: 1, Block: 32}, noopKernel(buf), 0.5); err != nil {
		t.Fatalf("short hang failed the launch: %v", err)
	}
	rec := in.Record()
	if rec.Hangs != 2 {
		t.Fatalf("hangs = %d, want 2", rec.Hangs)
	}
	if rec.StallSeconds != 0.7 {
		t.Fatalf("stall %v, want 0.7", rec.StallSeconds)
	}
}

func TestDeadDeviceStaysDead(t *testing.T) {
	d := faultTestDevice(t)
	buf, _ := d.Malloc(64)
	in := d.EnableFaults()
	in.Arm(FaultEvent{Kind: FaultDead})

	if _, err := d.TryLaunch(LaunchConfig{Grid: 1, Block: 32}, noopKernel(buf), 0); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost", err)
	}
	if in.Alive() {
		t.Fatal("device still alive after FaultDead")
	}
	// Every later operation fails the same way.
	if err := d.TryCopyToDevice(buf, []uint32{1}); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("transfer on dead device: %v", err)
	}
	if _, err := d.TryLaunch(LaunchConfig{Grid: 1, Block: 32}, noopKernel(buf), 0); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("launch on dead device: %v", err)
	}
	if rec := in.Record(); !rec.Dead || rec.Injected != 1 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestStallSecondsInTotal(t *testing.T) {
	var s Stats
	s.StallSeconds = 1.5
	tb := TeslaT10().Model(s)
	if tb.Stall != 1.5 {
		t.Fatalf("Stall = %v, want 1.5", tb.Stall)
	}
	if tb.Total() < 1.5 {
		t.Fatalf("Total %v dropped the stall", tb.Total())
	}
	if tb.TotalAsync() < 1.5 {
		t.Fatalf("TotalAsync %v dropped the stall", tb.TotalAsync())
	}
}
