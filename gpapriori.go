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
// With no Algorithm set, Mine runs the work-stealing pipeline, the
// fastest host engine; the simulator runs only when asked for.
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
	"gpapriori/internal/kernels"
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
	// AlgoPipeline is the work-stealing parallel CPU pipeline and the
	// default: prefix-class families split into grain-sized counting
	// subtasks on per-worker deques, each candidate counted with one
	// AND-popcount loop against its class's cached intersection, with
	// slab-arena candidate generation and a cost-modeled horizontal
	// fast path for the pair generation — overlapping generation k+1
	// candidate generation with generation k counting. Depth watermarks
	// give it the level-wise miners' generation boundaries, so it
	// streams, checkpoints and resumes like them, and it produces the
	// same frequent sets.
	AlgoPipeline Algorithm = "pipeline"
)

// Resolve returns the algorithm a run configured with a executes: the
// empty algorithm is the default, AlgoPipeline.
func (a Algorithm) Resolve() Algorithm {
	if a == "" {
		return AlgoPipeline
	}
	return a
}

// HasBoundaries reports whether the resolved algorithm has generation
// boundaries — the precondition for checkpointing, resuming and
// per-generation streaming. The level-wise miners have them, and so
// does the pipeline through its depth watermarks; the depth-first
// miners (Eclat, FP-Growth) do not.
func (a Algorithm) HasBoundaries() bool {
	switch a.Resolve() {
	case AlgoEclat, AlgoEclatDiffset, AlgoFPGrowth:
		return false
	}
	return true
}

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
	// Algorithm defaults to AlgoPipeline (see Algorithm.Resolve).
	Algorithm Algorithm
	// MinSupport is the absolute minimum transaction count. If zero,
	// RelativeSupport is used instead.
	MinSupport int
	// RelativeSupport is the minimum support ratio in (0,1], used when
	// MinSupport is zero.
	RelativeSupport float64
	// MaxLen bounds the itemset length (0 = unbounded).
	MaxLen int

	// BlockSize sets the GPU kernel's threads per block (AlgoGPApriori
	// only); 0 means the paper's tuned default of 256, with preloading
	// on and a 4× unroll.
	BlockSize int

	// EraPopcount makes the paper's CPU bitset counters use the 2011-era
	// 8-bit-table software popcount instead of the hardware instruction:
	// AlgoCPUBitset (CPU_TEST) and AlgoGPApriori's HybridCPUShare — the
	// configuration used for paper-faithful speedup comparisons. Every
	// other algorithm ignores it.
	EraPopcount bool

	// Workers sets the worker goroutine count of AlgoPipeline;
	// 0 = GOMAXPROCS.
	Workers int

	// Devices runs AlgoGPApriori across this many simulated GPUs with
	// candidates partitioned per generation (0 or 1 = single device).
	// The paper's platform, a Tesla S1070, carried four T10s; using them
	// is the paper's stated future work. Devices > 1, HybridCPUShare and
	// Faults configure the device pool, so any other algorithm rejects
	// them (see CheckDevicePool).
	Devices int
	// HybridCPUShare in [0,1) routes that fraction of each generation's
	// candidates to the host CPU while the devices count the rest — the
	// paper's CPU/GPU co-processing future-work model (AlgoGPApriori
	// only).
	HybridCPUShare float64

	// Faults injects device faults into an AlgoGPApriori run, as a
	// comma-separated spec of dev<N>:<kind>@gen<G> entries where <kind> is
	// kernel-fail, xfer-fail, hang[=seconds], or dead — e.g.
	// "dev1:kernel-fail@gen3,dev2:dead@gen2". A lost device's candidates
	// fail over to the surviving devices and degrade to the CPU when
	// none survive, so fault runs complete with the same result set as a
	// clean run. Empty = no faults.
	Faults string

	// Checkpoint snapshots mining state to this file at every generation
	// boundary (crash-safe: write-to-temp + rename), so a killed run can
	// be resumed with ResumeFrom. A snapshot holds only the frequent
	// itemsets up to its generation, so any algorithm with boundaries
	// can resume any other's. Algorithms with generation boundaries
	// only (see Algorithm.HasBoundaries) — the depth-first miners
	// (Eclat, FP-Growth) have none to snapshot at, and mining them with
	// Checkpoint set is an error rather than a silent no-op.
	Checkpoint string
	// ResumeFrom fast-forwards the run past the generations recorded in
	// the checkpoint at this path. A missing file starts fresh; a
	// checkpoint from a different database or support threshold is an
	// error (never silently mixed in). Typically the same path as
	// Checkpoint: kill the process, rerun the same config, and the
	// result is bit-identical to an uninterrupted run.
	ResumeFrom string

	// OnGeneration, when set, is invoked at each generation boundary
	// with the generation number (the itemset length just counted) and
	// the frequent itemsets new since the run's previous boundary, in
	// canonical order: those longer than the previous boundary's
	// generation and at most gen items long. A run's first boundary
	// carries every frequent itemset up to its generation, a resumed
	// run's the itemsets of its checkpoint too, so across a run's
	// boundaries each frequent itemset arrives exactly once and their
	// union is the result. The serving layer streams each call as one
	// event. The pipeline, which skips the level-wise all-subsets
	// prune, may report one more boundary than the level-wise miners,
	// carrying no itemset. The depth-first miners (Eclat, FP-Growth)
	// have no generation boundary; they ignore the hook and deliver
	// results only through the final Result.
	OnGeneration func(gen int, frequent []Itemset)

	// OnCheckpointError, when set, intercepts a failed checkpoint save
	// at a generation boundary. Returning nil degrades the run
	// gracefully: mining continues without that snapshot (and
	// OnGeneration keeps streaming); returning an error aborts the run
	// exactly as an unintercepted save failure would. It runs on the
	// generation's boundary before OnGeneration does. The serving layer
	// uses this to keep jobs alive on a sick disk — marked degraded
	// rather than failed. Requires Config.Checkpoint.
	OnCheckpointError func(gen int, err error) error
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
	// CPU algorithms). Devices of a pool run concurrently, so each
	// generation costs its slowest device.
	DeviceSeconds float64
	// DeviceBreakdown decomposes the modeled device time into "kernel",
	// "memory", "compute", "launch" and "transfer" seconds summed over
	// the device pool, and records the pool's "devices", the measured
	// "cpu-share" counting seconds and the "cpu-cands" it counted; nil
	// for CPU algorithms.
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

// CheckDevicePool rejects device-pool settings that would be silently
// ignored: Faults must parse, and Devices > 1, HybridCPUShare > 0 or any
// Faults need the resolved algorithm to be AlgoGPApriori, the only one
// that mines on simulated devices. MineContext applies it to every run.
// A served request cannot set any of these: its wire form carries only
// the query.
func (c Config) CheckDevicePool() error {
	if _, err := core.ParseFaultSpec(c.Faults); err != nil {
		return err
	}
	if algo := c.Algorithm.Resolve(); algo != AlgoGPApriori && (c.Devices > 1 || c.HybridCPUShare > 0 || c.Faults != "") {
		return fmt.Errorf("gpapriori: Devices > 1, HybridCPUShare and Faults configure the simulated device pool of algorithm %q; %q has none",
			AlgoGPApriori, algo)
	}
	return nil
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
// ctx at every generation boundary and the pipeline at every task and
// boundary; the depth-first miners (Eclat, FP-Growth) check it only
// before starting.
// A database without items, even one of empty transactions, is an
// error for every algorithm: the device path has no bitset to upload.
func MineContext(ctx context.Context, db *Database, cfg Config) (*Result, error) {
	if db == nil || db.db.NumItems() == 0 {
		return nil, fmt.Errorf("gpapriori: empty database")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	algo := cfg.Algorithm.Resolve()
	if err := cfg.CheckDevicePool(); err != nil {
		return nil, err
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
		faults, err := core.ParseFaultSpec(cfg.Faults)
		if err != nil {
			return nil, err
		}
		m, err := core.New(db.db, core.Options{
			Devices:        cfg.Devices,
			Kernel:         kopt,
			HybridCPUShare: cfg.HybridCPUShare,
			CPUPopcount:    cfg.popcount(),
			Faults:         faults,
		})
		if err != nil {
			return nil, err
		}
		rep, err := m.MineContext(ctx, minSup, acfg)
		if err != nil {
			return nil, err
		}
		rs = rep.Result
		res.HostSeconds = rep.HostSeconds
		res.DeviceSeconds = rep.DeviceSeconds
		res.DeviceBreakdown = map[string]float64{
			"kernel":    rep.Device.Kernel,
			"memory":    rep.Device.Memory,
			"compute":   rep.Device.Compute,
			"launch":    rep.Device.Launch,
			"transfer":  rep.Device.Transfer,
			"devices":   float64(len(rep.PerDevice)),
			"cpu-share": rep.CPUCountSeconds,
			"cpu-cands": float64(rep.CandidatesCPU),
		}
		if rep.Faults.Any() {
			f := FaultStats(rep.Faults)
			res.Faults = &f
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
		p := apriori.NewPipeline(db.db, db.itemSupports(), apriori.PipelineOptions{Workers: cfg.Workers})
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
// itemset result mining db under cfg would produce, plus the resolved
// absolute support. The identity is checkpoint.Key of the database's
// content fingerprint (see DatasetFingerprint), the absolute support
// and MaxLen, a fixed-size mix that reads none of the database once its
// content fingerprint is known; a checkpoint written under cfg carries
// the same value. Every algorithm yields the same result set for equal
// fingerprints (the clean-run-equivalence invariant), which is what
// makes the fingerprint a sound result-cache key for the serving layer.
func ResultFingerprint(db *Database, cfg Config) (uint64, int, error) {
	if db == nil || db.db.Len() == 0 {
		return 0, 0, fmt.Errorf("gpapriori: empty database")
	}
	minSup, err := cfg.resolveSupport(db)
	if err != nil {
		return 0, 0, err
	}
	return db.resultKey(minSup, cfg.MaxLen), minSup, nil
}

// DatasetFingerprint returns the content hash of the database alone —
// no support threshold, no length cap — the placement key the cluster
// layer feeds to its consistent-hash ring. Two nodes registered with
// the same dataset spec compute the same fingerprint and therefore
// agree on which peers own it, with zero coordination. The first call
// on a Database reads every transaction; the value is then kept.
func DatasetFingerprint(db *Database) (uint64, error) {
	if db == nil || db.db.Len() == 0 {
		return 0, fmt.Errorf("gpapriori: empty database")
	}
	return db.contentFingerprint(), nil
}

// wireCheckpoint installs the public checkpoint/resume config into the
// boundary config of the level-wise driver or the pipeline through
// checkpoint.Wire, wrapping its save hook for Config.OnCheckpointError.
func wireCheckpoint(db *Database, algo Algorithm, minSup int, cfg Config, acfg *apriori.Config) error {
	if cfg.Checkpoint == "" && cfg.ResumeFrom == "" {
		if cfg.OnCheckpointError != nil {
			return fmt.Errorf("gpapriori: Config.OnCheckpointError set without Config.Checkpoint")
		}
		return nil
	}
	if !algo.HasBoundaries() {
		return fmt.Errorf("gpapriori: algorithm %q cannot checkpoint or resume: it has no generation boundary to snapshot at (use one that has, e.g. %q)", algo, AlgoPipeline)
	}
	spec := checkpoint.Spec{Path: cfg.Checkpoint, ResumeFrom: cfg.ResumeFrom}
	if err := checkpoint.Wire(spec, db.resultKey(minSup, cfg.MaxLen), minSup, acfg); err != nil || acfg.Checkpoint == nil {
		return err
	}
	save, onErr := acfg.Checkpoint, cfg.OnCheckpointError
	acfg.Checkpoint = func(gen int, frequent *dataset.ResultSet) error {
		err := save(gen, frequent)
		if err != nil && onErr != nil {
			// The interceptor decides: nil keeps the run alive, degraded.
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
	if cfg.OnGeneration == nil || !algo.HasBoundaries() {
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
