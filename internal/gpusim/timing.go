package gpusim

import "fmt"

// TimeBreakdown is the modeled execution time of a set of device events,
// decomposed the way GPU profilers report it. All values are seconds.
type TimeBreakdown struct {
	Kernel   float64 // on-device execution (max of memory and compute)
	Memory   float64 // global-memory component of kernel time
	Compute  float64 // ALU component of kernel time
	Launch   float64 // accumulated kernel-launch overhead
	Transfer float64 // PCIe host↔device transfers (bytes + per-call latency)
	Stall    float64 // time lost to injected faults (hangs, failed ops)
}

// Total returns end-to-end modeled device time: kernels, launches,
// transfers and fault stalls. (Kernel memory/compute overlap inside
// Kernel; launches and transfers serialize with kernels in the paper's
// synchronous workflow.)
func (t TimeBreakdown) Total() float64 { return t.Kernel + t.Launch + t.Transfer + t.Stall }

// TotalAsync models the same work under a CUDA-streams pipeline, where
// host↔device copies overlap kernel execution (double-buffered candidate
// uploads / support downloads): the run costs the slower of the two
// streams plus the unoverlappable launch dispatch. The paper's workflow is
// synchronous; this is the standard follow-on optimization and the
// ablation harness reports both.
func (t TimeBreakdown) TotalAsync() float64 {
	busy := t.Kernel
	if t.Transfer > busy {
		busy = t.Transfer
	}
	return busy + t.Launch + t.Stall
}

// Add accumulates o into t component-wise — the modeled time of a pool of
// devices working side by side, summed.
func (t *TimeBreakdown) Add(o TimeBreakdown) {
	t.Kernel += o.Kernel
	t.Memory += o.Memory
	t.Compute += o.Compute
	t.Launch += o.Launch
	t.Transfer += o.Transfer
	t.Stall += o.Stall
}

func (t TimeBreakdown) String() string {
	return fmt.Sprintf("total=%.3gs kernel=%.3gs (mem=%.3gs alu=%.3gs) launch=%.3gs xfer=%.3gs",
		t.Total(), t.Kernel, t.Memory, t.Compute, t.Launch, t.Transfer)
}

// Model converts event counts into modeled seconds under configuration c.
//
// The kernel component is a roofline with an occupancy correction:
//
//	mem     = Transactions × SegmentBytes / (MemBandwidth × u)
//	compute = ALULaneOps / (SMs × CoresPerSM × CoreClock × u)
//	kernel  = max(mem, compute)  — memory and compute overlap on the card
//
// where u ∈ (0,1] is the utilization achieved by the launched warp
// population: a launch needs WarpsToSaturateSM resident warps per SM to
// hide DRAM latency, so small grids (few candidates, tiny datasets like
// chess) run below peak bandwidth. u is computed per *average launch*
// (warps per launch / warps needed), which matches how the paper's
// per-generation kernels behave.
//
// Shared-memory accesses and barriers are folded into compute at one
// lane-op each (T10 shared memory is single-cycle absent bank conflicts).
func (c Config) Model(s Stats) TimeBreakdown {
	var t TimeBreakdown
	u := 1.0
	if s.KernelLaunches > 0 {
		need := float64(c.SMs * c.WarpsToSaturateSM)
		if s.OccupancyMilliWarps > 0 {
			// Occupancy-aware utilization: average resident warps per SM
			// across launches against the latency-hiding requirement.
			warpsPerSM := float64(s.OccupancyMilliWarps) / 1000 / float64(s.KernelLaunches)
			u = warpsPerSM / float64(c.WarpsToSaturateSM)
		} else {
			// Fallback for hand-built stats: launch width vs total need.
			warpsPerLaunch := float64(s.WarpsRun) / float64(s.KernelLaunches)
			u = warpsPerLaunch / need
		}
		if u > 1 {
			u = 1
		}
		if u < 1.0/need { // at least one warp's worth of progress
			u = 1.0 / need
		}
	}
	t.Memory = float64(s.Transactions) * float64(c.SegmentBytes) / (c.MemBandwidthBps * u)
	lanes := float64(c.SMs*c.CoresPerSM) * c.CoreClockHz * u
	t.Compute = (float64(s.ALULaneOps) + float64(s.SharedAccesses) + float64(s.Barriers)) / lanes
	if t.Memory >= t.Compute {
		t.Kernel = t.Memory
	} else {
		t.Kernel = t.Compute
	}
	t.Launch = float64(s.KernelLaunches) * c.LaunchOverheadSec
	t.Transfer = float64(s.H2DBytes+s.D2HBytes)/c.PCIeBandwidthBps +
		float64(s.H2DCalls+s.D2HCalls)*c.TransferLatencySec
	t.Stall = s.StallSeconds
	return t
}

// ModeledTime returns the modeled time of everything the device has
// executed since the last ResetStats.
func (d *Device) ModeledTime() TimeBreakdown { return d.cfg.Model(d.Stats()) }
