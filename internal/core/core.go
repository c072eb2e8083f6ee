// Package core implements GPApriori itself — the paper's contribution:
// level-wise Apriori with trie-based candidate generation on the host and
// complete-intersection support counting on the (simulated) GPU.
//
// The workflow follows Section IV:
//
//  1. Transpose the database into static bitsets and upload only the
//     first-generation vectors to device memory (one H2D transfer).
//  2. Each generation: generate candidates on the host trie, ship the
//     candidate item lists to the device, launch the support-counting
//     kernel (one block per candidate), copy the support array back, and
//     prune the trie.
//  3. Repeat until no generation survives.
//
// The same loop runs over a pool of devices — the paper's future work:
// its Tesla S1070 carried four T10s of which it used one. Every device
// holds a copy of the bitsets and counts a contiguous shard of each
// generation's candidates, and an optional hybrid share of every
// generation is counted on the host CPU while the devices work. A device
// lost to a fault hands its shard to the survivors, and with none left
// the CPU counts it, so a run always completes with the clean result.
//
// Timing is split the way the substitution requires (DESIGN.md §2): host
// candidate generation and CPU counting are measured wall-clock;
// everything device-side is modeled by gpusim's calibrated timing model.
// Report carries both.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/clock"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// Options configures a GPApriori miner. The zero value is the paper's
// setup: one Tesla T10 with the tuned kernel and no CPU share.
type Options struct {
	// Devices is the number of simulated GPUs (0 = 1, at most
	// MaxDevices). Each holds a full copy of the first-generation
	// bitsets, as replication is how the S1070's independent memories
	// would be used for this workload.
	Devices int
	// Device is the per-GPU configuration (zero value = TeslaT10()).
	Device gpusim.Config
	// Kernel carries the Section IV.3 tuning knobs (block size, candidate
	// preloading, unrolling). Zero value = kernels.DefaultOptions().
	Kernel kernels.Options
	// HybridCPUShare in [0,1) routes that fraction of every generation's
	// candidates to the host CPU (bitset complete intersection, measured
	// time) while the rest go to the devices — the paper's CPU/GPU
	// co-processing model. 0 disables hybrid counting.
	HybridCPUShare float64
	// CPUPopcount selects the host popcount for CPU counting (the hybrid
	// share and candidates degraded off lost devices), which counts
	// exactly as CPU_TEST does.
	CPUPopcount bitset.PopcountKind
	// Faults schedules injected faults on the device pool. Empty =
	// fault-free. Recovery follows the fixed watchdog, retry budget and
	// backoff of faults.go.
	Faults []DeviceFault
}

// MaxDevices is the largest simulated device pool a Miner accepts.
const MaxDevices = 16

// devices resolves the zero value of Devices to one device.
func (o Options) devices() int { return max(o.Devices, 1) }

// Validate checks the options eagerly, with descriptive errors, so a bad
// configuration fails at construction instead of deep inside a
// generation loop.
func (o Options) Validate() error {
	if o.Devices < 0 || o.Devices > MaxDevices {
		return fmt.Errorf("core: %d devices out of range [1,%d]", o.Devices, MaxDevices)
	}
	if math.IsNaN(o.HybridCPUShare) || o.HybridCPUShare < 0 || o.HybridCPUShare >= 1 {
		return fmt.Errorf("core: hybrid CPU share %v out of [0,1)", o.HybridCPUShare)
	}
	for _, f := range o.Faults {
		if err := f.validate(o.devices()); err != nil {
			return err
		}
	}
	return nil
}

// Miner is a GPApriori instance bound to one database: the vertical
// bitsets live in device memory across mining runs, as in the paper.
type Miner struct {
	db       *dataset.DB
	ddbs     []*kernels.DeviceDB
	cpu      *apriori.CPUBitset
	opt      Options
	schedule faultSchedule
}

// Report describes one mining run.
type Report struct {
	Result *dataset.ResultSet
	// HostSeconds is measured wall-clock spent in host-side work:
	// candidate trie generation and pruning plus CPU counting.
	HostSeconds float64
	// CPUCountSeconds is the measured time of CPU counting alone.
	CPUCountSeconds float64
	// DeviceSeconds is the modeled wall time of the device pool,
	// retry backoff included: devices run concurrently, so each
	// generation costs the slowest device, summed over generations. On
	// one device it equals Device.Total().
	DeviceSeconds float64
	// Device is the modeled device time of the run (kernels, launches,
	// transfers, fault stalls and retry backoff) summed over the pool.
	Device gpusim.TimeBreakdown
	// DeviceStats are the raw device event counts summed over the pool.
	DeviceStats gpusim.Stats
	// PerDevice is each device's modeled time across the run.
	PerDevice []gpusim.TimeBreakdown
	// CandidatesPerDevice counts candidates each device counted.
	CandidatesPerDevice []int
	// CandidatesCPU counts candidates of the hybrid CPU share.
	CandidatesCPU int
	// Generations is the number of candidate generations counted
	// (itemset lengths 2..Generations+1).
	Generations int
	// Candidates is the total number of candidates whose support the
	// run computed.
	Candidates int
	// Faults records injected faults, retries, failovers and their
	// recovery cost (all zero on a clean run).
	Faults FaultStats
}

// TotalSeconds is the modeled end-to-end time: measured host work plus
// modeled device pool time.
func (r Report) TotalSeconds() float64 { return r.HostSeconds + r.DeviceSeconds }

// New builds a Miner over db: it transposes the database, creates the
// simulated devices, and uploads the first-generation bitsets to each.
func New(db *dataset.DB, opt Options) (*Miner, error) {
	if db.Len() == 0 || db.NumItems() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.Devices = opt.devices()
	if opt.Kernel.BlockSize == 0 {
		opt.Kernel = kernels.DefaultOptions()
	}
	opt.Kernel.DeadlineSec = watchdogSec

	bits := vertical.BuildBitsets(db)
	m := &Miner{
		db:       db,
		cpu:      apriori.NewCPUBitsetOver(bits, opt.CPUPopcount, apriori.CountOptions{}),
		opt:      opt,
		schedule: buildSchedule(opt.Faults),
	}
	for i := 0; i < opt.Devices; i++ {
		ddb, err := kernels.NewDeviceDB(opt.Device, bits)
		if err != nil {
			return nil, fmt.Errorf("core: device %d: %w", i, err)
		}
		if len(opt.Faults) > 0 {
			ddb.Device().EnableFaults()
		}
		m.ddbs = append(m.ddbs, ddb)
	}
	return m, nil
}

// Devices exposes the pool's simulated devices (for stats inspection
// and profiling in tools).
func (m *Miner) Devices() []*gpusim.Device {
	devs := make([]*gpusim.Device, len(m.ddbs))
	for i, ddb := range m.ddbs {
		devs[i] = ddb.Device()
	}
	return devs
}

// counter adapts the device pool to the apriori.Counter interface,
// splitting each generation between the hybrid CPU share and the
// devices, and accounting the time spent simulating (to be excluded from
// host-side wall-clock).
type counter struct {
	m           *Miner
	devs        []*gpusim.Device
	simWall     time.Duration
	cpuWall     time.Duration
	generations int
	candidates  int
	perDevice   []int
	cpuCands    int
	// deviceSeconds accumulates, per generation, the max modeled device
	// time — the pool works in parallel.
	deviceSeconds float64
	// backoffSec accumulates modeled retry waits, folded into the
	// report's device stall time.
	backoffSec float64
	// alive marks devices still in rotation; a lost device's share fails
	// over to the survivors (or the CPU when none remain).
	alive   []bool
	tracker faultTracker
}

// Name implements apriori.Counter.
func (c *counter) Name() string {
	return fmt.Sprintf("GPApriori(gpusim×%d,cpu=%.0f%%)", len(c.devs), c.m.opt.HybridCPUShare*100)
}

// aliveDevices returns the indices of devices still in rotation.
func (c *counter) aliveDevices() []int {
	var out []int
	for i, a := range c.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// countOnCPU counts cands on the host with bitset complete intersection,
// charging the measured time to the CPU clock. Used for the hybrid share
// and as the degraded path when no device survives.
func (c *counter) countOnCPU(cands []trie.Candidate, k int) {
	t0 := clock.Now()
	// CPUBitset.Count never fails over a valid vertical DB.
	_ = c.m.cpu.Count(nil, cands, k)
	c.cpuWall += clock.Since(t0)
}

// countOnDevice counts part on device d under the retry budget. It
// returns the modeled backoff spent; a non-nil error means the device is
// lost (dead, or retry budget exhausted) and part was not fully counted.
func (c *counter) countOnDevice(d int, part []trie.Candidate) (float64, error) {
	items := make([][]dataset.Item, len(part))
	for i, cand := range part {
		items[i] = cand.Items
	}
	return c.tracker.countBatch(func() error {
		sups, err := c.m.ddbs[d].SupportCounts(items, c.m.opt.Kernel)
		if err != nil {
			return err
		}
		for i, cand := range part {
			cand.Node.Support = sups[i]
		}
		return nil
	})
}

// Count implements apriori.Counter.
func (c *counter) Count(_ *trie.Trie, cands []trie.Candidate, k int) error {
	start := clock.Now()
	defer func() { c.simWall += clock.Since(start) }()
	c.generations++
	c.candidates += len(cands)
	c.m.schedule.arm(c.devs, k)

	// Host share first (it is measured, not simulated).
	nCPU := int(float64(len(cands)) * c.m.opt.HybridCPUShare)
	if nCPU > 0 {
		c.countOnCPU(cands[:nCPU], k)
		c.cpuCands += nCPU
	}

	// Contiguous shards across the surviving device pool. A device that
	// dies mid-generation (or exhausts its retry budget) is removed from
	// rotation and its shard re-sharded over the survivors; with no
	// survivors the remainder degrades to the CPU, so the run completes
	// either way.
	genMax := 0.0
	pending := cands[nCPU:]
	for len(pending) > 0 {
		alive := c.aliveDevices()
		if len(alive) == 0 {
			c.countOnCPU(pending, k)
			c.tracker.stats.DegradedCandidates += len(pending)
			break
		}
		shard := (len(pending) + len(alive) - 1) / len(alive)
		var failed []trie.Candidate
		for i, d := range alive {
			lo := i * shard
			if lo >= len(pending) {
				break
			}
			part := pending[lo:min(lo+shard, len(pending))]
			before := c.devs[d].ModeledTime().Total()
			extra, err := c.countOnDevice(d, part)
			c.backoffSec += extra
			genMax = max(genMax, c.devs[d].ModeledTime().Total()-before+extra)
			if err != nil {
				c.alive[d] = false
				c.tracker.stats.Failovers++
				failed = append(failed, part...)
				continue
			}
			c.perDevice[d] += len(part)
		}
		pending = failed
	}
	c.deviceSeconds += genMax
	return nil
}

// Mine runs GPApriori at the given absolute minimum support.
func (m *Miner) Mine(minSupport int, cfg apriori.Config) (Report, error) {
	return m.MineContext(context.Background(), minSupport, cfg)
}

// MineContext is Mine with cancellation: ctx is honored at every
// generation boundary.
func (m *Miner) MineContext(ctx context.Context, minSupport int, cfg apriori.Config) (Report, error) {
	devs := m.Devices()
	alive := make([]bool, len(devs))
	for i, d := range devs {
		d.ResetStats()
		// A device killed by a previous run on this miner stays dead.
		alive[i] = d.Faults() == nil || d.Faults().Alive()
	}
	c := &counter{
		m:         m,
		devs:      devs,
		perDevice: make([]int, len(devs)),
		alive:     alive,
	}
	t0 := clock.Now()
	rs, err := apriori.MineContext(ctx, m.db, minSupport, c, cfg)
	if err != nil {
		return Report{}, err
	}
	host := max(clock.Since(t0)-c.simWall+c.cpuWall, 0)
	rep := Report{
		Result:              rs,
		HostSeconds:         host.Seconds(),
		CPUCountSeconds:     c.cpuWall.Seconds(),
		DeviceSeconds:       c.deviceSeconds,
		CandidatesPerDevice: c.perDevice,
		CandidatesCPU:       c.cpuCands,
		Generations:         c.generations,
		Candidates:          c.candidates,
		Faults:              c.tracker.finalize(devs, c.alive),
	}
	for _, d := range devs {
		t := d.ModeledTime()
		rep.PerDevice = append(rep.PerDevice, t)
		rep.Device.Add(t)
		rep.DeviceStats.Add(d.Stats())
	}
	// Retry backoff is modeled wait on the device path; fold it into the
	// stall component so Device.Total() reflects the recovery cost.
	rep.Device.Stall += c.backoffSec
	return rep, nil
}
