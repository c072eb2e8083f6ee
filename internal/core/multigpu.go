// Multi-GPU and hybrid CPU/GPU mining — the paper's stated future work
// ("devise a load-balanced computation model across CPU/GPU platform and
// GPU cluster"). The experimental platform, a Tesla S1070, carried four
// T10 processors of which the paper used one; MultiMiner partitions each
// generation's candidates across N simulated devices, and HybridSplit
// additionally keeps a host share that is counted on the CPU while the
// devices work.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/checkpoint"
	"gpapriori/internal/clock"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// MultiOptions configures a multi-device (and optionally hybrid) miner.
type MultiOptions struct {
	// Devices is the number of simulated GPUs (1–MaxDevices). Each holds
	// a full copy of the first-generation bitsets, as replication is how
	// the S1070's independent memories would be used for this workload.
	Devices int
	// Device is the per-GPU configuration (zero value = TeslaT10()).
	Device gpusim.Config
	// Kernel carries the Section IV.3 knobs (zero value = defaults).
	Kernel kernels.Options
	// HybridCPUShare in [0,1) routes that fraction of every generation's
	// candidates to the host CPU (bitset complete intersection, measured
	// time) while the rest go to the devices — the paper's CPU/GPU
	// co-processing model. 0 disables hybrid counting.
	HybridCPUShare float64
	// AutoBalance makes the hybrid share self-tune: after every
	// generation the observed CPU candidate throughput (measured) and
	// device pool throughput (modeled) set the next generation's split so
	// both sides would finish together — the "load-balanced computation
	// model across CPU/GPU platform" of the paper's future work.
	// HybridCPUShare (or a small default) seeds the first generation.
	AutoBalance bool
	// MaxCPUShare caps the auto-balanced share (default 0.9).
	MaxCPUShare float64
	// CPUPopcount selects the host popcount for the hybrid share, which
	// counts exactly as CPU_TEST does.
	CPUPopcount bitset.PopcountKind
	// Faults schedules injected faults on the device pool. Empty =
	// fault-free.
	Faults []DeviceFault
	// FaultSeed seeds the per-device fault injectors for reproducible
	// runs.
	FaultSeed int64
	// Retry bounds fault recovery (zero value = defaults: 3 retries, 1ms
	// initial backoff, 1s watchdog deadline). A device whose batch still
	// fails after the budget is treated as lost; its candidates fail over
	// to the surviving devices, or degrade to the host CPU when none
	// survive.
	Retry RetryPolicy
	// Checkpoint snapshots mining state at generation boundaries and,
	// with Spec.Resume, fast-forwards a restarted run past completed
	// generations. Zero value = no checkpointing. A Checkpoint hook
	// already present in the apriori.Config passed to Mine wins over
	// this spec.
	Checkpoint checkpoint.Spec
	// MemoryBudgetBytes caps the modeled memory the replicated
	// first-generation bitsets may occupy across the device pool
	// (0 = uncapped). NewMulti rejects a budget smaller than even one
	// device's bitsets: such a miner could never hold generation 1, so
	// admission control must shed the job instead of constructing it.
	MemoryBudgetBytes int64
}

// MaxDevices is the largest simulated device pool a MultiMiner accepts.
const MaxDevices = 16

// Validate checks the options eagerly, with descriptive errors, so a bad
// configuration fails at construction instead of deep inside a
// generation loop.
func (o MultiOptions) Validate() error {
	if o.Devices < 1 || o.Devices > MaxDevices {
		return fmt.Errorf("core: %d devices out of range [1,%d]", o.Devices, MaxDevices)
	}
	if math.IsNaN(o.HybridCPUShare) || o.HybridCPUShare < 0 || o.HybridCPUShare >= 1 {
		return fmt.Errorf("core: hybrid CPU share %v out of [0,1)", o.HybridCPUShare)
	}
	if o.MaxCPUShare != 0 && (math.IsNaN(o.MaxCPUShare) || o.MaxCPUShare < 0 || o.MaxCPUShare >= 1) {
		return fmt.Errorf("core: max CPU share %v out of [0,1)", o.MaxCPUShare)
	}
	if err := o.Retry.validate(); err != nil {
		return err
	}
	if err := o.Checkpoint.Validate(); err != nil {
		return fmt.Errorf("core: MultiOptions.Checkpoint: %w", err)
	}
	if o.MemoryBudgetBytes < 0 {
		return fmt.Errorf("core: MultiOptions.MemoryBudgetBytes %d must be ≥0", o.MemoryBudgetBytes)
	}
	for _, f := range o.Faults {
		if err := f.validate(o.Devices); err != nil {
			return err
		}
	}
	return nil
}

// MultiMiner mines with candidates partitioned across several simulated
// devices, optionally sharing work with the host CPU.
type MultiMiner struct {
	db       *dataset.DB
	bits     *vertical.BitsetDB
	devs     []*gpusim.Device
	ddbs     []*kernels.DeviceDB
	opt      MultiOptions
	schedule faultSchedule
	// disabled marks devices administratively removed from rotation
	// (circuit breaker tripped); unlike a dead device, a disabled one can
	// be re-enabled once its breaker half-opens.
	disabled []bool
}

// SetDeviceEnabled removes device i from (or returns it to) rotation for
// subsequent runs — the hook the jobs-layer circuit breaker uses to trip
// a repeatedly faulting device out of the pool and to half-open it after
// a cooldown. A device whose injector reports it permanently dead stays
// out regardless.
func (m *MultiMiner) SetDeviceEnabled(i int, enabled bool) {
	if i >= 0 && i < len(m.disabled) {
		m.disabled[i] = !enabled
	}
}

// MultiReport extends Report with per-device breakdowns.
type MultiReport struct {
	Result *dataset.ResultSet
	// HostSeconds measures host-side work: candidate generation plus the
	// hybrid CPU counting share.
	HostSeconds float64
	// CPUCountSeconds is the measured time of the hybrid CPU share alone.
	CPUCountSeconds float64
	// DeviceSeconds is the modeled wall time of the device pool per
	// generation summed over generations: devices run concurrently, so
	// each generation costs the *maximum* over devices.
	DeviceSeconds float64
	// PerDevice is each device's modeled total across the whole run.
	PerDevice []gpusim.TimeBreakdown
	// CandidatesPerDevice counts candidates routed to each device.
	CandidatesPerDevice []int
	// CandidatesCPU counts candidates counted by the hybrid host share.
	CandidatesCPU int
	Generations   int
	// CPUShareByGeneration records the hybrid share used per generation
	// (constant unless AutoBalance).
	CPUShareByGeneration []float64
	// Faults records injected faults, retries, failovers and their
	// recovery cost (all zero on a clean run).
	Faults FaultStats
}

// TotalSeconds is the modeled end-to-end time.
func (r MultiReport) TotalSeconds() float64 { return r.HostSeconds + r.DeviceSeconds }

// NewMulti builds a MultiMiner over db.
func NewMulti(db *dataset.DB, opt MultiOptions) (*MultiMiner, error) {
	if db.Len() == 0 || db.NumItems() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxCPUShare == 0 {
		opt.MaxCPUShare = 0.9
	}
	if opt.AutoBalance && opt.HybridCPUShare == 0 {
		// Seed the balancer with a small probe share so it has a CPU
		// throughput observation to work from.
		opt.HybridCPUShare = 0.05
	}
	cfg := opt.Device
	if cfg.SMs == 0 {
		cfg = gpusim.TeslaT10()
	}
	if opt.Kernel.BlockSize == 0 {
		opt.Kernel = kernels.DefaultOptions()
	}
	opt.Retry = opt.Retry.withDefaults()
	opt.Kernel.DeadlineSec = opt.Retry.DeadlineSec
	bits := vertical.BuildBitsets(db)
	vecWords := len(bits.Vectors) * bits.WordsPerVector() * 2
	if budget := opt.MemoryBudgetBytes; budget > 0 {
		perDevice := int64(vecWords) * 4
		if budget < perDevice {
			return nil, fmt.Errorf("core: MultiOptions.MemoryBudgetBytes %d is smaller than one device's first-generation bitsets (%d bytes)",
				budget, perDevice)
		}
		if total := perDevice * int64(opt.Devices); budget < total {
			return nil, fmt.Errorf("core: MultiOptions.MemoryBudgetBytes %d cannot hold the bitsets replicated across %d devices (%d bytes)",
				budget, opt.Devices, total)
		}
	}
	scratch := vecWords
	if scratch < 1<<20 {
		scratch = 1 << 20
	}
	if scratch > 1<<25 {
		scratch = 1 << 25
	}
	m := &MultiMiner{db: db, bits: bits, opt: opt, schedule: buildSchedule(opt.Faults),
		disabled: make([]bool, opt.Devices)}
	for i := 0; i < opt.Devices; i++ {
		dev := gpusim.NewDevice(cfg, vecWords+scratch+1024)
		if len(opt.Faults) > 0 {
			// One injector per device, offset seeds so random-rate mode
			// (if enabled later) decorrelates across the pool.
			dev.EnableFaults(opt.FaultSeed + int64(i))
		}
		ddb, err := kernels.Upload(dev, bits)
		if err != nil {
			return nil, fmt.Errorf("core: device %d: %w", i, err)
		}
		m.devs = append(m.devs, dev)
		m.ddbs = append(m.ddbs, ddb)
	}
	return m, nil
}

// multiCounter implements apriori.Counter by splitting each generation
// between the host share and the device pool.
type multiCounter struct {
	m           *MultiMiner
	simWall     time.Duration
	cpuWall     time.Duration
	generations int
	perDevice   []int
	cpuCands    int
	// genDeviceSeconds accumulates, per generation, the max modeled
	// device time — the pool works in parallel.
	deviceSeconds float64
	// cpu counts the hybrid host share with CPU_TEST.
	cpu *apriori.CPUBitset
	// share is the current CPU fraction; sharesByGen records its history
	// when auto-balancing.
	share       float64
	sharesByGen []float64
	// alive marks devices still in rotation; a lost device's share fails
	// over to the survivors (or the CPU when none remain).
	alive   []bool
	tracker faultTracker
}

// aliveDevices returns the indices of devices still in rotation.
func (c *multiCounter) aliveDevices() []int {
	var out []int
	for i, a := range c.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// countOnCPU counts cands on the host with bitset complete intersection,
// charging the measured time to the hybrid CPU clock. Used for the
// planned hybrid share and as the degraded path when no device survives.
func (c *multiCounter) countOnCPU(cands []trie.Candidate, k int) time.Duration {
	t0 := clock.Now()
	// CPUBitset.Count never fails over a valid vertical DB.
	_ = c.cpu.Count(nil, cands, k)
	d := clock.Since(t0)
	c.cpuWall += d
	return d
}

// countOnDevice counts part on device d under the retry policy. It
// returns the modeled backoff spent; a non-nil error means the device is
// lost (dead, or retry budget exhausted) and part was not fully counted.
func (c *multiCounter) countOnDevice(d int, part []trie.Candidate) (float64, error) {
	items := make([][]dataset.Item, 0, len(part))
	for _, cand := range part {
		items = append(items, cand.Items)
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

// Name implements apriori.Counter.
func (c *multiCounter) Name() string {
	return fmt.Sprintf("GPApriori(multi×%d,cpu=%.0f%%)", c.m.opt.Devices, c.m.opt.HybridCPUShare*100)
}

// Count implements apriori.Counter.
func (c *multiCounter) Count(_ *trie.Trie, cands []trie.Candidate, k int) error {
	start := clock.Now()
	defer func() { c.simWall += clock.Since(start) }()
	c.generations++
	c.m.schedule.arm(c.m.devs, k)

	c.sharesByGen = append(c.sharesByGen, c.share)

	// Host share first (it is measured, not simulated).
	nCPU := int(float64(len(cands)) * c.share)
	var cpuGen time.Duration
	if nCPU > 0 {
		cpuGen = c.countOnCPU(cands[:nCPU], k)
		c.cpuCands += nCPU
	}
	rest := cands[nCPU:]
	if len(rest) == 0 {
		return nil
	}

	// Contiguous shards across the surviving device pool. A device that
	// dies mid-generation (or exhausts its retry budget) is removed from
	// rotation and its shard re-sharded over the survivors; with no
	// survivors the remainder degrades to the hybrid CPU path, so the run
	// completes either way.
	genMax := 0.0
	pending := rest
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
			hi := lo + shard
			if hi > len(pending) {
				hi = len(pending)
			}
			part := pending[lo:hi]
			before := c.m.devs[d].ModeledTime().Total()
			extra, err := c.countOnDevice(d, part)
			delta := c.m.devs[d].ModeledTime().Total() - before + extra
			if delta > genMax {
				genMax = delta
			}
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

	// Rebalance: pick the next generation's share so that, at the rates
	// just observed (CPU measured, devices modeled), both sides finish
	// together: share* = rateCPU / (rateCPU + rateDev). Smoothed to damp
	// per-generation noise.
	if c.m.opt.AutoBalance && nCPU > 0 && cpuGen > 0 && genMax > 0 {
		rateCPU := float64(nCPU) / cpuGen.Seconds()
		rateDev := float64(len(rest)) / genMax
		target := rateCPU / (rateCPU + rateDev)
		next := 0.5*c.share + 0.5*target
		if next > c.m.opt.MaxCPUShare {
			next = c.m.opt.MaxCPUShare
		}
		if next < 0.01 {
			next = 0.01
		}
		c.share = next
	}
	return nil
}

// Mine runs the multi-device miner at the given absolute support.
func (m *MultiMiner) Mine(minSupport int, cfg apriori.Config) (MultiReport, error) {
	return m.MineContext(context.Background(), minSupport, cfg)
}

// MineContext is Mine with cancellation: ctx is honored at every
// generation boundary.
func (m *MultiMiner) MineContext(ctx context.Context, minSupport int, cfg apriori.Config) (MultiReport, error) {
	for _, d := range m.devs {
		d.ResetStats()
	}
	alive := make([]bool, len(m.devs))
	for i, d := range m.devs {
		// A device killed by a previous run on this miner stays dead, and
		// a breaker-disabled one sits this run out.
		alive[i] = (d.Faults() == nil || d.Faults().Alive()) && !m.disabled[i]
	}
	c := &multiCounter{
		m:         m,
		perDevice: make([]int, len(m.devs)),
		cpu:       apriori.NewCPUBitsetOver(m.bits, m.opt.CPUPopcount, apriori.CountOptions{}),
		share:     m.opt.HybridCPUShare,
		alive:     alive,
		tracker:   faultTracker{policy: m.opt.Retry},
	}
	if err := checkpoint.Wire(m.opt.Checkpoint, m.db, minSupport, &cfg, func() map[string]string {
		return map[string]string{"faults": c.tracker.stats.String()}
	}); err != nil {
		return MultiReport{}, err
	}
	t0 := clock.Now()
	rs, err := apriori.MineContext(ctx, m.db, minSupport, c, cfg)
	if err != nil {
		return MultiReport{}, err
	}
	wall := clock.Since(t0)
	host := wall - c.simWall + c.cpuWall
	if host < 0 {
		host = 0
	}
	rep := MultiReport{
		Result:               rs,
		HostSeconds:          host.Seconds(),
		CPUCountSeconds:      c.cpuWall.Seconds(),
		DeviceSeconds:        c.deviceSeconds,
		CandidatesPerDevice:  c.perDevice,
		CandidatesCPU:        c.cpuCands,
		Generations:          c.generations,
		CPUShareByGeneration: c.sharesByGen,
		Faults:               c.tracker.finalize(m.devs, c.alive),
	}
	for _, d := range m.devs {
		rep.PerDevice = append(rep.PerDevice, d.ModeledTime())
	}
	return rep, nil
}

// MineRelative is Mine with a relative support threshold in (0,1].
func (m *MultiMiner) MineRelative(rel float64, cfg apriori.Config) (MultiReport, error) {
	return m.Mine(m.db.AbsoluteSupport(rel), cfg)
}
