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
// Timing is split the way the substitution requires (DESIGN.md §2): host
// candidate generation is measured wall-clock; everything device-side is
// modeled by gpusim's calibrated timing model. Report carries both.
package core

import (
	"context"
	"fmt"
	"time"

	"gpapriori/internal/apriori"
	"gpapriori/internal/checkpoint"
	"gpapriori/internal/clock"
	"gpapriori/internal/dataset"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/trie"
	"gpapriori/internal/vertical"
)

// Options configures a GPApriori miner.
type Options struct {
	// Device is the simulated GPU configuration. Zero value = TeslaT10().
	Device gpusim.Config
	// Kernel carries the Section IV.3 tuning knobs (block size, candidate
	// preloading, unrolling). Zero value = kernels.DefaultOptions().
	Kernel kernels.Options
	// DeviceMemWords overrides the device memory size in 32-bit words
	// (0 = sized automatically from the dataset with scratch headroom).
	DeviceMemWords int
	// Faults schedules injected faults on the device (all entries must
	// name device 0). Empty = fault-free.
	Faults []DeviceFault
	// FaultSeed seeds the device's fault injector for reproducible runs.
	FaultSeed int64
	// Retry bounds fault recovery (zero value = defaults: 3 retries, 1ms
	// initial backoff, 1s watchdog deadline).
	Retry RetryPolicy
	// Checkpoint snapshots mining state at generation boundaries and,
	// with Spec.Resume, fast-forwards a restarted run past completed
	// generations. Zero value = no checkpointing. A Checkpoint hook
	// already present in the apriori.Config passed to Mine wins over
	// this spec.
	Checkpoint checkpoint.Spec
}

// Miner is a GPApriori instance bound to one database: the vertical
// bitsets live in device memory across mining runs, as in the paper.
type Miner struct {
	db       *dataset.DB
	dev      *gpusim.Device
	ddb      *kernels.DeviceDB
	opt      kernels.Options
	schedule faultSchedule
	retry    RetryPolicy
	ckpt     checkpoint.Spec
}

// Report describes one mining run.
type Report struct {
	Result *dataset.ResultSet
	// HostSeconds is measured wall-clock spent in host-side work
	// (candidate trie generation and pruning).
	HostSeconds float64
	// Device is the modeled device time of the run (kernels, launches,
	// transfers) from the gpusim timing model.
	Device gpusim.TimeBreakdown
	// DeviceStats are the raw device event counts of the run.
	DeviceStats gpusim.Stats
	// Generations is the number of candidate generations counted on the
	// device (itemset lengths 2..Generations+1).
	Generations int
	// Candidates is the total number of candidates whose support the
	// device computed.
	Candidates int
	// Faults records injected faults and their recovery cost (all zero on
	// a clean run).
	Faults FaultStats
}

// TotalSeconds is the modeled end-to-end time: measured host work plus
// modeled device work.
func (r Report) TotalSeconds() float64 { return r.HostSeconds + r.Device.Total() }

// New builds a Miner over db: it transposes the database, creates the
// simulated device, and uploads the first-generation bitsets.
func New(db *dataset.DB, opt Options) (*Miner, error) {
	if db.Len() == 0 || db.NumItems() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if err := opt.Retry.validate(); err != nil {
		return nil, err
	}
	if err := opt.Checkpoint.Validate(); err != nil {
		return nil, err
	}
	for _, f := range opt.Faults {
		if err := f.validate(1); err != nil {
			return nil, err
		}
	}
	cfg := opt.Device
	if cfg.SMs == 0 {
		cfg = gpusim.TeslaT10()
	}
	retry := opt.Retry.withDefaults()
	kopt := opt.Kernel
	if kopt.BlockSize == 0 {
		kopt = kernels.DefaultOptions()
	}
	kopt.DeadlineSec = retry.DeadlineSec

	v := vertical.BuildBitsets(db)
	vecWords := len(v.Vectors) * v.WordsPerVector() * 2 // 32-bit words
	memWords := opt.DeviceMemWords
	if memWords == 0 {
		// Vectors plus scratch headroom for the largest candidate batch.
		scratch := vecWords
		if scratch < 1<<20 {
			scratch = 1 << 20
		}
		if scratch > 1<<25 {
			scratch = 1 << 25
		}
		memWords = vecWords + scratch + 1024
	}
	dev := gpusim.NewDevice(cfg, memWords)
	if len(opt.Faults) > 0 {
		dev.EnableFaults(opt.FaultSeed)
	}
	ddb, err := kernels.Upload(dev, v)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Miner{
		db: db, dev: dev, ddb: ddb, opt: kopt,
		schedule: buildSchedule(opt.Faults), retry: retry,
		ckpt: opt.Checkpoint,
	}, nil
}

// Device exposes the simulated device (for stats inspection in tools).
func (m *Miner) Device() *gpusim.Device { return m.dev }

// counter adapts the device kernel to the apriori.Counter interface,
// chunking generations that exceed free device memory into multiple
// launches and accounting the time spent simulating (to be excluded from
// host-side wall-clock).
type counter struct {
	m           *Miner
	simWall     time.Duration
	generations int
	candidates  int
	tracker     faultTracker
	// backoffSec accumulates modeled retry waits, folded into the
	// report's device stall time.
	backoffSec float64
}

// Name implements apriori.Counter.
func (c *counter) Name() string { return "GPApriori(gpusim)" }

// Count implements apriori.Counter.
func (c *counter) Count(_ *trie.Trie, cands []trie.Candidate, k int) error {
	start := clock.Now()
	defer func() { c.simWall += clock.Since(start) }()
	c.generations++
	c.candidates += len(cands)
	c.m.schedule.arm([]*gpusim.Device{c.m.dev}, k)

	// A batch of n candidates needs n·k words (candidate ids) + n words
	// (supports) + two buffers' alignment slack.
	free := c.m.dev.MemWords() - c.m.dev.AllocatedWords()
	maxBatch := (free - 32) / (k + 1)
	if maxBatch < 1 {
		return fmt.Errorf("core: device out of memory for generation %d (%d free words)", k, free)
	}
	items := make([][]dataset.Item, 0, len(cands))
	for lo := 0; lo < len(cands); lo += maxBatch {
		hi := lo + maxBatch
		if hi > len(cands) {
			hi = len(cands)
		}
		items = items[:0]
		for _, cand := range cands[lo:hi] {
			items = append(items, cand.Items)
		}
		batch := cands[lo:hi]
		extra, err := c.tracker.countBatch(func() error {
			c.m.dev.TagNextLaunch(fmt.Sprintf("support-count gen %d", k))
			sups, err := c.m.ddb.SupportCounts(items, c.m.opt)
			if err != nil {
				return err
			}
			for i, cand := range batch {
				cand.Node.Support = sups[i]
			}
			return nil
		})
		c.backoffSec += extra
		if err != nil {
			return fmt.Errorf("core: generation %d: %w", k, err)
		}
	}
	return nil
}

// Mine runs GPApriori at the given absolute minimum support.
func (m *Miner) Mine(minSupport int, cfg apriori.Config) (Report, error) {
	return m.MineContext(context.Background(), minSupport, cfg)
}

// MineContext is Mine with cancellation: ctx is honored at every
// generation boundary.
func (m *Miner) MineContext(ctx context.Context, minSupport int, cfg apriori.Config) (Report, error) {
	m.dev.ResetStats()
	c := &counter{m: m, tracker: faultTracker{policy: m.retry}}
	if err := checkpoint.Wire(m.ckpt, m.db, minSupport, &cfg, func() map[string]string {
		return map[string]string{"faults": c.tracker.stats.String()}
	}); err != nil {
		return Report{}, err
	}
	t0 := clock.Now()
	rs, err := apriori.MineContext(ctx, m.db, minSupport, c, cfg)
	if err != nil {
		return Report{}, err
	}
	wall := clock.Since(t0)
	host := wall - c.simWall
	if host < 0 {
		host = 0
	}
	stats := m.dev.Stats()
	dev := m.dev.Config().Model(stats)
	// Retry backoff is modeled wait on the device path; fold it into the
	// stall component so TotalSeconds reflects the recovery cost.
	dev.Stall += c.backoffSec
	return Report{
		Result:      rs,
		HostSeconds: host.Seconds(),
		Device:      dev,
		DeviceStats: stats,
		Generations: c.generations,
		Candidates:  c.candidates,
		Faults:      c.tracker.finalize([]*gpusim.Device{m.dev}, nil),
	}, nil
}

// MineRelative is Mine with a relative support threshold in (0,1].
func (m *Miner) MineRelative(rel float64, cfg apriori.Config) (Report, error) {
	return m.Mine(m.db.AbsoluteSupport(rel), cfg)
}
