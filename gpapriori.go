// Package gpapriori is a Go reproduction of "GPApriori: GPU-Accelerated
// Frequent Itemset Mining" (Zhang, Zhang & Bakos, IEEE CLUSTER 2011).
//
// It provides frequent-itemset mining over transaction databases with the
// paper's full algorithm roster: GPApriori itself (static-bitset complete
// intersection, support counting on a simulated CUDA device), the CPU
// baselines it was benchmarked against (bitset CPU_TEST, Borgelt-style
// tidset Apriori, Bodon-style trie Apriori, Goethals-style horizontal
// Apriori), plus Eclat (tidset/diffset) and FP-Growth.
//
// Quick start:
//
//	db := gpapriori.NewDatabase([][]gpapriori.Item{
//		{1, 2, 3}, {1, 2}, {2, 3}, {1, 3},
//	})
//	res, err := gpapriori.Mine(db, gpapriori.Config{
//		Algorithm:       gpapriori.AlgoGPApriori,
//		RelativeSupport: 0.5,
//	})
//
// Because pure Go cannot drive a physical GPU, the "GPU" is gpusim, a
// functional SIMT simulator with a Tesla-T10-calibrated timing model; all
// device-side times in Result are modeled, host-side times are measured.
// See DESIGN.md for the substitution argument and EXPERIMENTS.md for the
// paper-vs-measured record.
package gpapriori

import (
	"context"
	"fmt"

	"gpapriori/internal/apriori"
	"gpapriori/internal/bitset"
	"gpapriori/internal/checkpoint"
	"gpapriori/internal/core"
	"gpapriori/internal/dataset"
	"gpapriori/internal/eclat"
	"gpapriori/internal/fpgrowth"
	"gpapriori/internal/gpusim"
	"gpapriori/internal/kernels"
	"gpapriori/internal/vertical"
)

// Item is a transaction item identifier (a small dense non-negative
// integer).
type Item = uint32

// Algorithm selects a mining strategy.
type Algorithm string

// The algorithm roster of the paper's Table 1, plus Eclat and FP-Growth
// from its background section.
const (
	// AlgoGPApriori is the paper's contribution: trie candidate generation
	// on the host, complete-intersection support counting on the
	// (simulated) GPU.
	AlgoGPApriori Algorithm = "gpapriori"
	// AlgoCPUBitset is CPU_TEST: the GPU kernel's exact work on one CPU
	// thread.
	AlgoCPUBitset Algorithm = "cpu-bitset"
	// AlgoBorgelt is vertical tidset Apriori with per-generation tidset
	// reuse.
	AlgoBorgelt Algorithm = "borgelt"
	// AlgoBodon is horizontal trie-counting Apriori.
	AlgoBodon Algorithm = "bodon"
	// AlgoGoethals is horizontal candidate-list Apriori (Agrawal's
	// original counting).
	AlgoGoethals Algorithm = "goethals"
	// AlgoEclat is depth-first vertical mining with tidsets.
	AlgoEclat Algorithm = "eclat"
	// AlgoEclatDiffset is Eclat with the Zaki–Gouda diffset optimization.
	AlgoEclatDiffset Algorithm = "eclat-diffset"
	// AlgoFPGrowth is pattern-growth mining without candidate generation.
	AlgoFPGrowth Algorithm = "fpgrowth"
	// AlgoPipeline is the work-stealing parallel CPU pipeline:
	// prefix-class families split into grain-sized counting subtasks on
	// per-worker deques, each counted against its class's cached
	// intersection with early abort, with slab-arena candidate
	// generation and a cost-modeled horizontal fast path for the pair
	// generation — overlapping generation k+1 candidate generation with
	// generation k counting. Produces the same frequent sets as the
	// level-wise miners.
	AlgoPipeline Algorithm = "pipeline"
)

// Algorithms lists every supported algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgoGPApriori, AlgoCPUBitset, AlgoBorgelt, AlgoBodon,
		AlgoGoethals, AlgoEclat, AlgoEclatDiffset, AlgoFPGrowth,
		AlgoPipeline,
	}
}

// Config parameterizes a mining run.
type Config struct {
	// Algorithm defaults to AlgoGPApriori.
	Algorithm Algorithm
	// MinSupport is the absolute minimum transaction count. If zero,
	// RelativeSupport is used instead.
	MinSupport int
	// RelativeSupport is the minimum support ratio in (0,1], used when
	// MinSupport is zero.
	RelativeSupport float64
	// MaxLen bounds the itemset length (0 = unbounded).
	MaxLen int

	// GPU kernel knobs (AlgoGPApriori only); zero values mean the paper's
	// tuned defaults (256-thread blocks, preloading on, 4× unroll).
	BlockSize int
	NoPreload bool
	Unroll    int
	// AutoTuneKernel probes block size / preload / unroll by modeled time
	// on a sample of frequent-pair candidates before mining, overriding
	// the knobs above — the automated version of the paper's Section IV.3
	// hand-tuning (AlgoGPApriori only).
	AutoTuneKernel bool

	// EraPopcount makes CPU bitset counting use the 2011-era 8-bit-table
	// software popcount instead of the hardware instruction
	// (AlgoCPUBitset, AlgoPipeline and the hybrid CPU share) — the
	// configuration used for paper-faithful speedup comparisons.
	EraPopcount bool

	// Workers sets the worker goroutine count of AlgoPipeline;
	// 0 = GOMAXPROCS.
	Workers int

	// Devices runs AlgoGPApriori across this many simulated GPUs with
	// candidates partitioned per generation (0 or 1 = single device).
	// The paper's platform, a Tesla S1070, carried four T10s; using them
	// is the paper's stated future work.
	Devices int
	// HybridCPUShare in [0,1) routes that fraction of each generation's
	// candidates to the host CPU while the devices count the rest — the
	// paper's CPU/GPU co-processing future-work model (AlgoGPApriori
	// only).
	HybridCPUShare float64

	// Faults injects device faults into an AlgoGPApriori run, as a
	// comma-separated spec of dev<N>:<kind>@gen<G> entries where <kind> is
	// kernel-fail, xfer-fail, hang[=seconds], or dead — e.g.
	// "dev1:kernel-fail@gen3,dev2:dead@gen2". Fault runs always take the
	// failover-capable multi-device path, so they complete (degrading to
	// the CPU if every device dies) with the same result set as a clean
	// run. Empty = no faults.
	Faults string
	// FaultSeed seeds the fault injectors for reproducible fault runs.
	FaultSeed int64

	// Checkpoint snapshots mining state to this file at every generation
	// boundary (crash-safe: write-to-temp + rename), so a killed run can
	// be resumed with ResumeFrom. Level-wise algorithms only — the
	// depth-first miners (Eclat, FP-Growth) and the overlapped Pipeline
	// have no generation boundary to snapshot at, and mining them with
	// Checkpoint set is an error rather than a silent no-op.
	Checkpoint string
	// CheckpointEvery saves every N counted generations (0 = every
	// generation when Checkpoint is set). The final boundary is always
	// saved.
	CheckpointEvery int
	// ResumeFrom fast-forwards the run past the generations recorded in
	// the checkpoint at this path. A missing file starts fresh; a
	// checkpoint from a different database or support threshold is an
	// error (never silently mixed in). Typically the same path as
	// Checkpoint: kill the process, rerun the same config, and the
	// result is bit-identical to an uninterrupted run.
	ResumeFrom string
	// MemoryBudgetMB caps the modeled device memory of a multi-GPU run
	// in MiB (0 = uncapped); a budget too small for even one device's
	// first-generation bitsets is rejected up front.
	MemoryBudgetMB int

	// OnGeneration, when set, is invoked after each counted generation
	// of a level-wise run with the generation number (the itemset length
	// just counted) and every frequent itemset found so far, in canonical
	// order. The serving layer streams per-generation results through it.
	// The depth-first miners (Eclat, FP-Growth) and the overlapped
	// Pipeline have no generation boundary; they ignore the hook and
	// deliver results only through the final Result.
	OnGeneration func(gen int, frequent []Itemset)

	// OnCheckpointError, when set, intercepts a failed checkpoint save
	// at a generation boundary. Returning nil degrades the run
	// gracefully: mining continues without that snapshot (and
	// OnGeneration keeps streaming); returning an error aborts the run
	// exactly as an unintercepted save failure would. The serving layer
	// uses this to keep jobs alive on a sick disk — marked degraded
	// rather than failed. Requires Config.Checkpoint.
	OnCheckpointError func(gen int, err error) error

	// onCheckpoint, when set, is notified after each successful
	// checkpoint save. The job manager uses it to surface the
	// checkpointed lifecycle state.
	onCheckpoint func(gen int)
	// excludeDevices removes simulated devices from the pool for this
	// run (circuit-breaker integration); forces the multi-device path.
	excludeDevices []int
}

// Itemset is one frequent itemset with its absolute support. The JSON
// tags fix the wire shape the serving layer streams.
type Itemset struct {
	Items   []Item `json:"items"`
	Support int    `json:"support"`
}

// Result is the outcome of a mining run.
type Result struct {
	Algorithm  Algorithm
	MinSupport int // absolute threshold actually applied
	Itemsets   []Itemset

	// HostSeconds is measured wall-clock host time. For AlgoGPApriori it
	// covers candidate generation only (device work is modeled); for CPU
	// algorithms it is the full run.
	HostSeconds float64
	// DeviceSeconds is the modeled GPU time (AlgoGPApriori only; zero for
	// CPU algorithms).
	DeviceSeconds float64
	// DeviceBreakdown decomposes the modeled device time ("kernel",
	// "memory", "compute", "launch", "transfer" in seconds); nil for CPU
	// algorithms.
	DeviceBreakdown map[string]float64
	// Faults reports injected-fault activity and recovery cost; nil when
	// the run saw no fault activity.
	Faults *FaultStats
}

// FaultStats mirrors the fault accounting of a GPApriori run: what was
// injected, how it was absorbed, and what the recovery cost in modeled
// time.
type FaultStats struct {
	Injected           int     // faults fired across all devices
	KernelFaults       int     // failed kernel launches
	TransferFaults     int     // aborted transfers
	Hangs              int     // hung kernels (watchdog-killed or late)
	Retries            int     // batch retries performed
	Failovers          int     // batches re-routed off a lost device
	DegradedCandidates int     // candidates counted on the CPU because no device survived
	RecoverySeconds    float64 // modeled time lost to faults
	DeadDevices        []int   // devices permanently lost
}

func (f FaultStats) String() string {
	return core.FaultStats(f).String()
}

// TotalSeconds returns the run's end-to-end time (measured host +
// modeled device).
func (r *Result) TotalSeconds() float64 { return r.HostSeconds + r.DeviceSeconds }

// Len returns the number of frequent itemsets found.
func (r *Result) Len() int { return len(r.Itemsets) }

// popcount maps EraPopcount onto the host popcount implementation.
func (c Config) popcount() bitset.PopcountKind {
	if c.EraPopcount {
		return bitset.PopcountTable8
	}
	return bitset.PopcountHardware
}

// resolveSupport converts the config's threshold to an absolute count.
func (c Config) resolveSupport(db *Database) (int, error) {
	if c.MinSupport > 0 {
		return c.MinSupport, nil
	}
	if c.RelativeSupport > 0 && c.RelativeSupport <= 1 {
		return db.db.AbsoluteSupport(c.RelativeSupport), nil
	}
	return 0, fmt.Errorf("gpapriori: config needs MinSupport ≥ 1 or RelativeSupport in (0,1]")
}

// Mine runs the configured algorithm over db and returns every frequent
// itemset with its support, plus timing.
func Mine(db *Database, cfg Config) (*Result, error) {
	return MineContext(context.Background(), db, cfg)
}

// MineContext is Mine with cancellation. The level-wise algorithms honor
// ctx at every generation boundary; the depth-first miners (Eclat,
// FP-Growth) check it only before starting.
func MineContext(ctx context.Context, db *Database, cfg Config) (*Result, error) {
	if db == nil || db.db.Len() == 0 {
		return nil, fmt.Errorf("gpapriori: empty database")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	algo := cfg.Algorithm
	if algo == "" {
		algo = AlgoGPApriori
	}
	minSup, err := cfg.resolveSupport(db)
	if err != nil {
		return nil, err
	}
	acfg := apriori.Config{MaxLen: cfg.MaxLen}
	if err := wireCheckpoint(db, algo, minSup, cfg, &acfg); err != nil {
		return nil, err
	}
	wireGenerationHook(algo, cfg, &acfg)

	res := &Result{Algorithm: algo, MinSupport: minSup}
	var rs *dataset.ResultSet

	switch algo {
	case AlgoGPApriori:
		kopt := kernels.DefaultOptions()
		if cfg.BlockSize > 0 {
			kopt.BlockSize = cfg.BlockSize
		}
		if cfg.NoPreload {
			kopt.Preload = false
		}
		if cfg.Unroll > 0 {
			kopt.Unroll = cfg.Unroll
		}
		if cfg.AutoTuneKernel {
			tuned, err := autoTuneKernel(db, minSup)
			if err != nil {
				return nil, err
			}
			kopt = tuned
		}
		faults, err := core.ParseFaultSpec(cfg.Faults)
		if err != nil {
			return nil, err
		}
		// Fault runs take the multi-device path even on one device: it can
		// fail over and degrade to the CPU, so the run always completes.
		// Device exclusions (circuit breaker) need the same machinery.
		if cfg.Devices > 1 || cfg.HybridCPUShare > 0 || len(faults) > 0 ||
			len(cfg.excludeDevices) > 0 {
			rs, err = runMultiDevice(ctx, db, cfg, minSup, acfg, kopt, faults, res)
			if err != nil {
				return nil, err
			}
			break
		}
		m, err := core.New(db.db, core.Options{Kernel: kopt})
		if err != nil {
			return nil, err
		}
		rep, err := m.MineContext(ctx, minSup, acfg)
		if err != nil {
			return nil, err
		}
		rs = rep.Result
		res.HostSeconds = rep.HostSeconds
		res.DeviceSeconds = rep.Device.Total()
		res.DeviceBreakdown = map[string]float64{
			"kernel":   rep.Device.Kernel,
			"memory":   rep.Device.Memory,
			"compute":  rep.Device.Compute,
			"launch":   rep.Device.Launch,
			"transfer": rep.Device.Transfer,
		}
	case AlgoCPUBitset, AlgoBorgelt, AlgoBodon, AlgoGoethals:
		var counter apriori.Counter
		switch algo {
		case AlgoCPUBitset:
			counter = apriori.NewCPUBitset(db.db, cfg.popcount())
		case AlgoBorgelt:
			counter = apriori.NewBorgelt(db.db)
		case AlgoBodon:
			counter = apriori.NewBodon(db.db)
		case AlgoGoethals:
			counter = apriori.NewGoethals(db.db)
		}
		rs, res.HostSeconds, err = timed(func() (*dataset.ResultSet, error) {
			return apriori.MineContext(ctx, db.db, minSup, counter, acfg)
		})
		if err != nil {
			return nil, err
		}
	case AlgoPipeline:
		p := apriori.NewPipeline(db.db, apriori.PipelineOptions{
			Workers:  cfg.Workers,
			Popcount: cfg.popcount(),
		})
		rs, res.HostSeconds, err = timed(func() (*dataset.ResultSet, error) {
			return p.MineContext(ctx, minSup, acfg)
		})
		if err != nil {
			return nil, err
		}
	case AlgoEclat, AlgoEclatDiffset:
		mode := eclat.Tidsets
		if algo == AlgoEclatDiffset {
			mode = eclat.Diffsets
		}
		rs, res.HostSeconds, err = timed(func() (*dataset.ResultSet, error) {
			return eclat.Mine(db.db, minSup, mode)
		})
		if err != nil {
			return nil, err
		}
		rs = capLen(rs, cfg.MaxLen)
	case AlgoFPGrowth:
		rs, res.HostSeconds, err = timed(func() (*dataset.ResultSet, error) {
			return fpgrowth.Mine(db.db, minSup)
		})
		if err != nil {
			return nil, err
		}
		rs = capLen(rs, cfg.MaxLen)
	default:
		return nil, fmt.Errorf("gpapriori: unknown algorithm %q (have %v)", algo, Algorithms())
	}

	res.Itemsets = toItemsets(rs)
	return res, nil
}

// runMultiDevice is the failover-capable AlgoGPApriori path: a pool of
// simulated devices with optional hybrid CPU share, fault injection,
// breaker-driven device exclusion, and a modeled memory budget. It fills
// res's timing/fault fields and returns the frequent sets.
func runMultiDevice(ctx context.Context, db *Database, cfg Config, minSup int,
	acfg apriori.Config, kopt kernels.Options, faults []core.DeviceFault,
	res *Result) (*dataset.ResultSet, error) {
	devices := cfg.Devices
	if devices < 1 {
		devices = 1
	}
	m, err := core.NewMulti(db.db, core.MultiOptions{
		Devices:           devices,
		Kernel:            kopt,
		HybridCPUShare:    cfg.HybridCPUShare,
		CPUPopcount:       cfg.popcount(),
		Faults:            faults,
		FaultSeed:         cfg.FaultSeed,
		MemoryBudgetBytes: int64(cfg.MemoryBudgetMB) << 20,
	})
	if err != nil {
		return nil, err
	}
	for _, d := range cfg.excludeDevices {
		m.SetDeviceEnabled(d, false)
	}
	rep, err := m.MineContext(ctx, minSup, acfg)
	if err != nil {
		return nil, err
	}
	res.HostSeconds = rep.HostSeconds
	res.DeviceSeconds = rep.DeviceSeconds
	res.DeviceBreakdown = map[string]float64{
		"pool":      rep.DeviceSeconds,
		"cpu-share": rep.CPUCountSeconds,
		"devices":   float64(devices),
		"cpu-cands": float64(rep.CandidatesCPU),
	}
	if rep.Faults.Any() {
		f := FaultStats(rep.Faults)
		res.Faults = &f
	}
	return rep.Result, nil
}

// Typed checkpoint failures, re-exported so CLI and serving callers can
// distinguish a stale snapshot from a damaged one with errors.Is.
var (
	// ErrCheckpointMismatch marks a well-formed checkpoint that belongs
	// to a different run (different database, support threshold, or
	// MaxLen) than the one being resumed.
	ErrCheckpointMismatch = checkpoint.ErrMismatch
	// ErrCheckpointCorrupt marks a checkpoint file that failed
	// structural or checksum validation.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
)

// ResultFingerprint returns the canonical identity of the frequent-
// itemset result mining db under cfg would produce — the checkpoint
// package's fingerprint of (database content, absolute support, MaxLen)
// — plus the resolved absolute support. Every algorithm yields the same
// result set for equal fingerprints (the clean-run-equivalence
// invariant), which is what makes the fingerprint a sound result-cache
// key for the serving layer.
func ResultFingerprint(db *Database, cfg Config) (uint64, int, error) {
	if db == nil || db.db.Len() == 0 {
		return 0, 0, fmt.Errorf("gpapriori: empty database")
	}
	minSup, err := cfg.resolveSupport(db)
	if err != nil {
		return 0, 0, err
	}
	return checkpoint.Fingerprint(db.db, minSup, cfg.MaxLen), minSup, nil
}

// DatasetFingerprint returns the content hash of the database alone —
// no support threshold, no length cap — the placement key the cluster
// layer feeds to its consistent-hash ring. Two nodes registered with
// the same dataset spec compute the same fingerprint and therefore
// agree on which peers own it, with zero coordination.
func DatasetFingerprint(db *Database) (uint64, error) {
	if db == nil || db.db.Len() == 0 {
		return 0, fmt.Errorf("gpapriori: empty database")
	}
	return checkpoint.Fingerprint(db.db, 0, 0), nil
}

// wireCheckpoint installs the public checkpoint/resume config into the
// level-wise driver config. The hook installed here wins over any
// miner-level checkpoint spec (checkpoint.Wire is a no-op when a hook is
// already present), so every AlgoGPApriori variant and CPU strategy flows
// through this one save path.
func wireCheckpoint(db *Database, algo Algorithm, minSup int, cfg Config, acfg *apriori.Config) error {
	if cfg.Checkpoint == "" && cfg.ResumeFrom == "" {
		if cfg.CheckpointEvery != 0 {
			return fmt.Errorf("gpapriori: Config.CheckpointEvery %d set without Config.Checkpoint",
				cfg.CheckpointEvery)
		}
		if cfg.OnCheckpointError != nil {
			return fmt.Errorf("gpapriori: Config.OnCheckpointError set without Config.Checkpoint")
		}
		return nil
	}
	switch algo {
	case AlgoEclat, AlgoEclatDiffset, AlgoFPGrowth, AlgoPipeline:
		return fmt.Errorf("gpapriori: algorithm %q cannot checkpoint or resume: it has no generation boundary to snapshot at (use a level-wise algorithm)", algo)
	}
	every := cfg.CheckpointEvery
	if every == 0 {
		every = 1
	}
	if every < 0 {
		return fmt.Errorf("gpapriori: Config.CheckpointEvery %d must be ≥0", cfg.CheckpointEvery)
	}
	fp := checkpoint.Fingerprint(db.db, minSup, cfg.MaxLen)
	if cfg.ResumeFrom != "" {
		snap, err := checkpoint.TryResume(cfg.ResumeFrom, fp, minSup)
		if err != nil {
			return err
		}
		if snap != nil {
			acfg.Resume = &apriori.Resume{Gen: snap.Gen, Frequent: snap.Frequent}
		}
	}
	if cfg.Checkpoint == "" {
		return nil
	}
	path, maxLen, algoName, notify := cfg.Checkpoint, cfg.MaxLen, string(algo), cfg.onCheckpoint
	onErr := cfg.OnCheckpointError
	acfg.CheckpointEvery = every
	acfg.Checkpoint = func(gen int, frequent *dataset.ResultSet) error {
		err := checkpoint.Save(path, checkpoint.Snapshot{
			Gen: gen, MinSupport: minSup, MaxLen: maxLen,
			Fingerprint: fp,
			Meta:        map[string]string{"algorithm": algoName},
			Frequent:    frequent,
		})
		if err == nil {
			if notify != nil {
				notify(gen)
			}
			return nil
		}
		if onErr != nil {
			// The interceptor decides: nil keeps the run alive (degraded —
			// the checkpointed-state notification is deliberately skipped,
			// since nothing durable exists for this generation).
			return onErr(gen, err)
		}
		return err
	}
	return nil
}

// wireGenerationHook chains Config.OnGeneration onto the generation-
// boundary callback, after any checkpoint save installed by
// wireCheckpoint — a streamed generation is only announced once it is
// durable. Depth-first algorithms have no boundary and skip the hook.
func wireGenerationHook(algo Algorithm, cfg Config, acfg *apriori.Config) {
	if cfg.OnGeneration == nil {
		return
	}
	switch algo {
	case AlgoEclat, AlgoEclatDiffset, AlgoFPGrowth, AlgoPipeline:
		return
	}
	prev := acfg.Checkpoint
	notify := cfg.OnGeneration
	acfg.Checkpoint = func(gen int, frequent *dataset.ResultSet) error {
		if prev != nil {
			if err := prev(gen, frequent); err != nil {
				return err
			}
		}
		notify(gen, toItemsets(frequent))
		return nil
	}
	if acfg.CheckpointEvery == 0 {
		acfg.CheckpointEvery = 1
	}
}

// toItemsets converts a result set to the public shape in canonical
// order.
func toItemsets(rs *dataset.ResultSet) []Itemset {
	rs.Sort()
	out := make([]Itemset, rs.Len())
	for i, s := range rs.Sets {
		out[i] = Itemset{Items: s.Items, Support: s.Support}
	}
	return out
}

// capLen filters rs to itemsets of at most maxLen items (depth-first
// miners have no level-wise cutoff, so the bound is applied after the
// fact to keep result sets comparable).
func capLen(rs *dataset.ResultSet, maxLen int) *dataset.ResultSet {
	if maxLen <= 0 {
		return rs
	}
	out := &dataset.ResultSet{}
	for _, s := range rs.Sets {
		if len(s.Items) <= maxLen {
			out.Add(s.Items, s.Support)
		}
	}
	return out
}

// autoTuneKernel builds a probe batch of frequent item pairs and runs the
// modeled-time tuner over it.
func autoTuneKernel(db *Database, minSup int) (kernels.Options, error) {
	sup := db.db.ItemSupports()
	var freq []Item
	for it, s := range sup {
		if s >= minSup {
			freq = append(freq, Item(it))
		}
	}
	probe := make([][]Item, 0, 32)
	for i := 0; i < len(freq) && len(probe) < 32; i++ {
		for j := i + 1; j < len(freq) && len(probe) < 32; j++ {
			probe = append(probe, []Item{freq[i], freq[j]})
		}
	}
	if len(probe) == 0 {
		// Nothing frequent to probe with: fall back to the defaults.
		return kernels.DefaultOptions(), nil
	}
	bits := vertical.BuildBitsets(db.db)
	best, _, err := kernels.AutoTune(bits, gpusim.TeslaT10(), probe)
	if err != nil {
		return kernels.Options{}, err
	}
	return best, nil
}
