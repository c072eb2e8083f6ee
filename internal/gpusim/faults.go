package gpusim

import (
	"errors"
	"sync"
)

// Fault injection. Real S1070-era deployments lost kernels to driver
// watchdog resets, transfers to PCIe errors, and whole devices to ECC
// faults; the simulator reproduces those failure modes deterministically
// so the mining layers above can prove they recover from them.
//
// Faults are opt-in: a device without an attached Injector behaves
// exactly as before, and the plain Launch/Copy* methods never consult the
// injector. Fault-aware callers use TryLaunch/TryCopyToDevice/
// TryCopyFromDevice, which return the sentinel errors below instead of
// producing results. An injected failure never leaves partial state
// behind — a failed launch does not run the kernel and an aborted
// transfer copies nothing — so a retried or re-routed operation computes
// exactly what the clean run would have.

// Sentinel errors returned by the Try* operations under injected faults.
var (
	// ErrKernelFault is a failed kernel launch (the CUDA "unspecified
	// launch failure"). The launch did not run; retrying is safe.
	ErrKernelFault = errors.New("gpusim: kernel launch failed (injected fault)")
	// ErrTransferFault is an aborted host↔device transfer. No data moved.
	ErrTransferFault = errors.New("gpusim: transfer aborted (injected fault)")
	// ErrWatchdogTimeout is a kernel that hung past the caller's modeled
	// deadline and was killed by the watchdog.
	ErrWatchdogTimeout = errors.New("gpusim: kernel exceeded watchdog deadline")
	// ErrDeviceLost is a permanently dead device (ECC fault, driver
	// reset). Every subsequent Try* operation fails with it.
	ErrDeviceLost = errors.New("gpusim: device lost")
)

// FaultKind selects a failure mode.
type FaultKind int

const (
	// FaultNone is the zero value; it never fires.
	FaultNone FaultKind = iota
	// FaultKernelFail makes the next kernel launch fail cleanly.
	FaultKernelFail
	// FaultTransferFail aborts the next host↔device transfer.
	FaultTransferFail
	// FaultHang makes the next kernel launch stall for HangSeconds of
	// modeled time. If the caller supplied a watchdog deadline shorter
	// than the hang, the launch is killed at the deadline
	// (ErrWatchdogTimeout); otherwise it completes after the stall.
	FaultHang
	// FaultDead kills the device permanently at its next operation.
	FaultDead
)

// String names the fault kind in specs and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultKernelFail:
		return "kernel-fail"
	case FaultTransferFail:
		return "xfer-fail"
	case FaultHang:
		return "hang"
	case FaultDead:
		return "dead"
	default:
		return "none"
	}
}

// FaultEvent is one armed fault: it fires on the device's next eligible
// operation (launches for kernel faults, transfers for transfer faults,
// either for FaultDead).
type FaultEvent struct {
	Kind FaultKind
	// HangSeconds is the modeled stall of a FaultHang event.
	HangSeconds float64
}

// FaultRecord is the injector's accounting: what actually fired.
type FaultRecord struct {
	Injected       int     // total faults fired on this device
	KernelFaults   int     // failed launches
	TransferFaults int     // aborted transfers
	Hangs          int     // hung launches (killed or completed late)
	StallSeconds   float64 // modeled seconds lost to hangs and failed ops
	Dead           bool    // device permanently lost
}

// Injector drives fault injection for one device. It fires armed events
// in FIFO order per operation class, so its decisions are deterministic
// for a given schedule and operation sequence.
type Injector struct {
	mu    sync.Mutex
	armed []FaultEvent
	rec   FaultRecord
	dead  bool
}

// EnableFaults attaches a fault injector to the device, creating it on
// first call.
func (d *Device) EnableFaults() *Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.faults == nil {
		d.faults = &Injector{}
	}
	return d.faults
}

// Faults returns the device's injector, or nil when fault injection is
// not enabled.
func (d *Device) Faults() *Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults
}

// Arm queues an event to fire on the next eligible operation. Events of
// the same class fire in FIFO order.
func (in *Injector) Arm(ev FaultEvent) {
	if ev.Kind == FaultNone {
		return
	}
	in.mu.Lock()
	in.armed = append(in.armed, ev)
	in.mu.Unlock()
}

// Record returns a snapshot of the faults fired so far.
func (in *Injector) Record() FaultRecord {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rec
}

// Alive reports whether the device is still usable.
func (in *Injector) Alive() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.dead
}

// popLocked removes and returns the first armed event eligible for the
// given operation class (kernel or transfer). Callers hold in.mu.
func (in *Injector) popLocked(kernelOp bool) (FaultEvent, bool) {
	for i, ev := range in.armed {
		eligible := ev.Kind == FaultDead ||
			(kernelOp && (ev.Kind == FaultKernelFail || ev.Kind == FaultHang)) ||
			(!kernelOp && ev.Kind == FaultTransferFail)
		if eligible {
			in.armed = append(in.armed[:i], in.armed[i+1:]...)
			return ev, true
		}
	}
	return FaultEvent{}, false
}

// beforeLaunch decides the fate of a kernel launch. It returns the
// modeled stall in seconds (accounted by the caller) and an error when
// the launch must not run. deadlineSec > 0 is the watchdog deadline.
func (in *Injector) beforeLaunch(cfg Config, deadlineSec float64) (float64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return 0, ErrDeviceLost
	}
	ev, ok := in.popLocked(true)
	if !ok {
		return 0, nil
	}
	in.rec.Injected++
	switch ev.Kind {
	case FaultKernelFail:
		// The launch was dispatched and failed: the driver round trip is
		// lost time.
		in.rec.KernelFaults++
		in.rec.StallSeconds += cfg.LaunchOverheadSec
		return cfg.LaunchOverheadSec, ErrKernelFault
	case FaultHang:
		in.rec.Hangs++
		if deadlineSec > 0 && ev.HangSeconds > deadlineSec {
			// Watchdog kills the hung kernel at the deadline.
			in.rec.StallSeconds += deadlineSec
			return deadlineSec, ErrWatchdogTimeout
		}
		// Hang shorter than the deadline (or no watchdog): the kernel
		// eventually runs, just late.
		in.rec.StallSeconds += ev.HangSeconds
		return ev.HangSeconds, nil
	case FaultDead:
		in.dead = true
		in.rec.Dead = true
		return 0, ErrDeviceLost
	}
	return 0, nil
}

// beforeTransfer decides the fate of a host↔device transfer.
func (in *Injector) beforeTransfer(cfg Config) (float64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dead {
		return 0, ErrDeviceLost
	}
	ev, ok := in.popLocked(false)
	if !ok {
		return 0, nil
	}
	in.rec.Injected++
	switch ev.Kind {
	case FaultTransferFail:
		in.rec.TransferFaults++
		in.rec.StallSeconds += cfg.TransferLatencySec
		return cfg.TransferLatencySec, ErrTransferFault
	case FaultDead:
		in.dead = true
		in.rec.Dead = true
		return 0, ErrDeviceLost
	}
	return 0, nil
}

// addStall accounts modeled seconds lost to a fault into the device's
// statistics, so ModeledTime reflects the recovery cost.
func (d *Device) addStall(sec float64) {
	if sec <= 0 {
		return
	}
	d.mu.Lock()
	d.stats.StallSeconds += sec
	d.mu.Unlock()
}

// TryLaunch is Launch under fault injection with an optional watchdog:
// deadlineSec > 0 bounds the modeled time a hung kernel may stall before
// the watchdog kills it. Without an injector it is exactly Launch. Stall
// time of injected faults is accounted into the device statistics whether
// or not the launch succeeds.
func (d *Device) TryLaunch(cfg LaunchConfig, k Kernel, deadlineSec float64) (Stats, error) {
	d.mu.Lock()
	in := d.faults
	d.mu.Unlock()
	if in != nil {
		stall, err := in.beforeLaunch(d.cfg, deadlineSec)
		d.addStall(stall)
		if err != nil {
			return Stats{}, err
		}
	}
	return d.Launch(cfg, k), nil
}

// TryCopyToDevice is CopyToDevice under fault injection: an injected
// transfer fault aborts the copy (no data moves) and returns an error.
func (d *Device) TryCopyToDevice(dst Buffer, data []uint32) error {
	d.mu.Lock()
	in := d.faults
	d.mu.Unlock()
	if in != nil {
		stall, err := in.beforeTransfer(d.cfg)
		d.addStall(stall)
		if err != nil {
			return err
		}
	}
	d.CopyToDevice(dst, data)
	return nil
}

// TryCopyFromDevice is CopyFromDevice under fault injection.
func (d *Device) TryCopyFromDevice(dst []uint32, src Buffer) error {
	d.mu.Lock()
	in := d.faults
	d.mu.Unlock()
	if in != nil {
		stall, err := in.beforeTransfer(d.cfg)
		d.addStall(stall)
		if err != nil {
			return err
		}
	}
	d.CopyFromDevice(dst, src)
	return nil
}
