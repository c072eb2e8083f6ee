// Fault tolerance for the mining paths: a declarative per-device fault
// schedule, a fixed watchdog + retry/backoff applied to every kernel
// launch and transfer, and the accounting block (FaultStats) that makes
// recovery observable in reports. The invariant the machinery maintains
// is clean-run equivalence: a fault-injected run must produce exactly the
// result set of the fault-free run, because failed operations leave no
// partial state and re-executed batches are deterministic.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gpapriori/internal/gpusim"
)

// DeviceFault schedules one injected fault: device Device suffers Kind at
// the start of generation Gen (the itemset length being counted; the
// first device generation is 2).
type DeviceFault struct {
	Device int
	Gen    int
	Kind   gpusim.FaultKind
	// HangSeconds is the modeled stall of a FaultHang (default 30s, far
	// past any sane watchdog deadline).
	HangSeconds float64
}

// DefaultHangSeconds is the modeled hang length when a spec does not give
// one — long enough that any configured watchdog fires first.
const DefaultHangSeconds = 30.0

func (f DeviceFault) validate(devices int) error {
	if f.Device < 0 || f.Device >= devices {
		return fmt.Errorf("core: fault device %d out of range [0,%d)", f.Device, devices)
	}
	if f.Gen < 2 {
		return fmt.Errorf("core: fault generation %d must be ≥2 (the first device generation)", f.Gen)
	}
	if f.Kind == gpusim.FaultNone {
		return fmt.Errorf("core: fault on device %d has no kind", f.Device)
	}
	if f.HangSeconds < 0 {
		return fmt.Errorf("core: negative hang %v on device %d", f.HangSeconds, f.Device)
	}
	return nil
}

// ParseFaultSpec parses a comma-separated fault plan of the form
//
//	dev<N>:<kind>@gen<G>
//
// where <kind> is kernel-fail, xfer-fail, dead, hang, or hang=<seconds>.
// Example: "dev1:kernel-fail@gen3,dev2:dead@gen2,dev0:hang=2.5@gen4".
func ParseFaultSpec(spec string) ([]DeviceFault, error) {
	var out []DeviceFault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		devPart, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("core: fault %q: want dev<N>:<kind>@gen<G>", entry)
		}
		kindPart, genPart, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("core: fault %q: missing @gen<G>", entry)
		}
		numStr, hasDev := strings.CutPrefix(devPart, "dev")
		if !hasDev {
			return nil, fmt.Errorf("core: fault %q: device must be dev<N>", entry)
		}
		dev, err := strconv.Atoi(numStr)
		if err != nil || dev < 0 {
			return nil, fmt.Errorf("core: fault %q: bad device index %q", entry, numStr)
		}
		genStr, hasGen := strings.CutPrefix(genPart, "gen")
		if !hasGen {
			return nil, fmt.Errorf("core: fault %q: generation must be gen<G>", entry)
		}
		gen, err := strconv.Atoi(genStr)
		if err != nil || gen < 2 {
			return nil, fmt.Errorf("core: fault %q: generation %q must be an integer ≥2", entry, genStr)
		}
		f := DeviceFault{Device: dev, Gen: gen}
		switch {
		case kindPart == "kernel-fail":
			f.Kind = gpusim.FaultKernelFail
		case kindPart == "xfer-fail":
			f.Kind = gpusim.FaultTransferFail
		case kindPart == "dead":
			f.Kind = gpusim.FaultDead
		case kindPart == "hang" || strings.HasPrefix(kindPart, "hang="):
			f.Kind = gpusim.FaultHang
			f.HangSeconds = DefaultHangSeconds
			if _, secStr, ok := strings.Cut(kindPart, "="); ok {
				sec, err := strconv.ParseFloat(secStr, 64)
				if err != nil || sec <= 0 {
					return nil, fmt.Errorf("core: fault %q: bad hang seconds %q", entry, secStr)
				}
				f.HangSeconds = sec
			}
		default:
			return nil, fmt.Errorf("core: fault %q: unknown kind %q (want kernel-fail, xfer-fail, hang[=sec], dead)", entry, kindPart)
		}
		out = append(out, f)
	}
	return out, nil
}

// Fault recovery is fixed: every kernel launch runs under a modeled
// watchdog, and a failed batch is retried with exponential backoff up to
// a budget. A device whose batch still fails after the budget is treated
// as lost; its candidates fail over to the surviving devices, or degrade
// to the host CPU when none survive.
const (
	// retryBudget is the number of retries per batch.
	retryBudget = 3
	// firstBackoffSec is the modeled wait before a batch's first retry;
	// it doubles per retry.
	firstBackoffSec = 1e-3
	// watchdogSec is the modeled watchdog deadline per kernel launch. A
	// kernel hanging past it is killed and retried.
	watchdogSec = 1.0
)

// FaultStats makes robustness observable: everything the fault machinery
// injected, absorbed, and paid for during one mining run. The JSON tags
// fix the fault_stats object of gpapriori -json (the root package's
// FaultStats is this type).
type FaultStats struct {
	Injected       int `json:"injected"`        // faults fired across all devices
	KernelFaults   int `json:"kernel_faults"`   // failed kernel launches
	TransferFaults int `json:"transfer_faults"` // aborted transfers
	Hangs          int `json:"hangs"`           // hung kernels (watchdog-killed or late)
	Retries        int `json:"retries"`         // batch retries performed
	Failovers      int `json:"failovers"`       // batches re-routed off a lost device
	// DegradedCandidates counts candidates that fell back to the host CPU
	// because no device survived to count them.
	DegradedCandidates int `json:"degraded_candidates"`
	// RecoverySeconds is the modeled time lost to faults: stalls of hung
	// and failed operations plus retry backoff.
	RecoverySeconds float64 `json:"recovery_seconds"`
	// DeadDevices lists devices permanently lost during the run.
	DeadDevices []int `json:"dead_devices,omitempty"`
}

// Any reports whether any fault activity occurred.
func (f FaultStats) Any() bool {
	return f.Injected > 0 || f.Retries > 0 || f.Failovers > 0 || f.DegradedCandidates > 0
}

func (f FaultStats) String() string {
	return fmt.Sprintf("injected=%d (kernel=%d xfer=%d hang=%d) retries=%d failovers=%d degraded=%d recovery=%.4gs dead=%v",
		f.Injected, f.KernelFaults, f.TransferFaults, f.Hangs,
		f.Retries, f.Failovers, f.DegradedCandidates, f.RecoverySeconds, f.DeadDevices)
}

// faultSchedule indexes scheduled faults by generation.
type faultSchedule map[int][]DeviceFault

func buildSchedule(faults []DeviceFault) faultSchedule {
	if len(faults) == 0 {
		return nil
	}
	s := make(faultSchedule)
	for _, f := range faults {
		s[f.Gen] = append(s[f.Gen], f)
	}
	return s
}

// arm fires generation k's scheduled faults into the device injectors.
func (s faultSchedule) arm(devs []*gpusim.Device, k int) {
	for _, f := range s[k] {
		if in := devs[f.Device].Faults(); in != nil {
			in.Arm(gpusim.FaultEvent{Kind: f.Kind, HangSeconds: f.HangSeconds})
		}
	}
}

// faultTracker accumulates a run's fault accounting.
type faultTracker struct {
	stats FaultStats
}

// countBatch runs count under the retry budget. It returns the modeled
// backoff seconds spent (to be charged to the batch's device time) and an
// error when the device is lost or the retry budget is exhausted —
// either way the device should not be used again this run.
func (ft *faultTracker) countBatch(count func() error) (float64, error) {
	backoff := firstBackoffSec
	extra := 0.0
	for attempt := 0; ; attempt++ {
		err := count()
		if err == nil {
			return extra, nil
		}
		if errors.Is(err, gpusim.ErrDeviceLost) {
			return extra, err
		}
		if attempt >= retryBudget {
			return extra, fmt.Errorf("core: retry budget (%d) exhausted: %w", retryBudget, err)
		}
		ft.stats.Retries++
		ft.stats.RecoverySeconds += backoff
		extra += backoff
		backoff *= 2
	}
}

// finalize folds the device injector records into the tracker's stats.
// alive[i]==false marks device i as removed from rotation by the run.
func (ft *faultTracker) finalize(devs []*gpusim.Device, alive []bool) FaultStats {
	s := ft.stats
	for _, d := range devs {
		in := d.Faults()
		if in == nil {
			continue
		}
		rec := in.Record()
		s.Injected += rec.Injected
		s.KernelFaults += rec.KernelFaults
		s.TransferFaults += rec.TransferFaults
		s.Hangs += rec.Hangs
		s.RecoverySeconds += rec.StallSeconds
	}
	for i, a := range alive {
		if !a {
			s.DeadDevices = append(s.DeadDevices, i)
		}
	}
	return s
}
