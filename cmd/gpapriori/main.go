// Command gpapriori mines frequent itemsets (and optionally association
// rules) from a FIMI ".dat" file, a named-item basket file, or a
// generated paper dataset.
//
// Usage:
//
//	gpapriori -input chess.dat -minsup 0.9
//	gpapriori -dataset accidents -scale 0.02 -minsup 0.5 -algo borgelt
//	gpapriori -dataset chess -scale 0.1 -minsup 0.8 -rules 0.9 -top 20
//	gpapriori -named baskets.txt -minsup 0.05 -rules 0.5      # string items
//	gpapriori -input chess.dat -minsup 0.9 -json > result.json
//	gpapriori -input t40.dat -minsup 0.02 -checkpoint run.ckpt       # durable
//	gpapriori -input t40.dat -minsup 0.02 -checkpoint run.ckpt -resume
//	gpapriori -serve-url http://127.0.0.1:8080 -dataset chess -minsup 0.8
//
// Exit status: 0 on success, 1 on any other error, 2 when -resume finds
// a checkpoint that belongs to a different run (ErrCheckpointMismatch),
// 3 when the checkpoint file is damaged (ErrCheckpointCorrupt).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"gpapriori"
	"gpapriori/internal/dataset"
	"gpapriori/internal/resultio"
)

func main() {
	var (
		input    = flag.String("input", "", "FIMI .dat file to mine (integer items)")
		named    = flag.String("named", "", "basket file with arbitrary string items")
		dsName   = flag.String("dataset", "", "generated paper dataset: T40I10D100K, pumsb, chess, accidents")
		scale    = flag.Float64("scale", 0.05, "scale of the generated dataset (1.0 = published size)")
		minsup   = flag.Float64("minsup", 0, "minimum support: ratio in (0,1) or whole-number count ≥ 1")
		algo     = flag.String("algo", string(gpapriori.Algorithm("").Resolve()), "algorithm (see gpapriori.Algorithms); gpapriori runs the simulated GPU; -serve-url mines with pipeline only")
		maxLen   = flag.Int("maxlen", 0, "maximum itemset length (0 = unbounded)")
		workers  = flag.Int("workers", 0, "worker count for the pipeline algorithm (0 = GOMAXPROCS)")
		devices  = flag.Int("devices", 0, "simulated GPU count for -algo gpapriori (0/1 = single)")
		cpuShare = flag.Float64("cpushare", 0, "hybrid CPU share in [0,1) for -algo gpapriori")
		faults   = flag.String("faults", "", `inject device faults into -algo gpapriori, e.g. "dev1:kernel-fail@gen3,dev2:dead@gen2" (kinds: kernel-fail, xfer-fail, hang[=sec], dead)`)
		minConf  = flag.Float64("rules", 0, "also derive association rules at this confidence (0 = off)")
		ckpt     = flag.String("checkpoint", "", "write a crash-safe checkpoint here at every generation boundary")
		resume   = flag.Bool("resume", false, "fast-forward from the -checkpoint file if it exists")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		top      = flag.Int("top", 25, "print at most this many itemsets/rules (0 = all)")
		quiet    = flag.Bool("quiet", false, "print only summary counts and timings")
		resOnly  = flag.Bool("result-only", false, "print only the canonical 'items : support' result lines (diffable across runs and servers)")
		serveURL = flag.String("serve-url", "", "submit to a running gpaserve daemon instead of mining locally; -dataset names a registry entry")
		srvStats = flag.Bool("serve-stats", false, "with -serve-url: also print the daemon's /statsz snapshot")
		priority = flag.Int("priority", 0, "with -serve-url: admission priority (higher first)")
		deadline = flag.Float64("deadline", 0, "with -serve-url: job deadline in seconds (0 = none)")
		noCache  = flag.Bool("no-cache", false, "with -serve-url: bypass the daemon's result cache")
		retryMax = flag.Int("retry-max", 0, "with -serve-url: attempts per request before giving up (0 = no retries)")
		retryMS  = flag.Int("retry-base-ms", 0, "with -serve-url: first retry backoff in milliseconds (0 = default 100)")
		retryJit = flag.Float64("retry-jitter", 0, "with -serve-url: backoff jitter fraction in [0,1]")
		retrySd  = flag.Int64("retry-seed", 0, "with -serve-url: seed for the deterministic retry jitter")
		retryTO  = flag.Float64("retry-timeout", 0, "with -serve-url: per-attempt timeout in seconds (0 = none)")
	)
	flag.Parse()
	opts := runOpts{
		input: *input, named: *named, dsName: *dsName, scale: *scale,
		minsup: *minsup, algo: *algo, maxLen: *maxLen, workers: *workers,
		devices: *devices, cpuShare: *cpuShare, minConf: *minConf,
		jsonOut: *jsonOut, top: *top, quiet: *quiet,
		faults:     *faults,
		checkpoint: *ckpt, resume: *resume,
		resultOnly: *resOnly, serveURL: *serveURL, serveStats: *srvStats,
		priority: *priority, deadlineSec: *deadline, noCache: *noCache,
		retryMax: *retryMax, retryBaseMS: *retryMS, retryJitter: *retryJit,
		retrySeed: *retrySd, retryTimeoutSec: *retryTO,
	}
	if err := run(os.Stdout, opts); err != nil {
		code, msg := exitStatus(err)
		fmt.Fprintln(os.Stderr, "gpapriori: "+msg)
		os.Exit(code)
	}
}

// exitStatus maps an error to the process exit code and message. The
// two checkpoint failure modes get distinct codes so scripts can tell a
// stale snapshot (rerun without -resume) from a damaged file (restore
// or delete it) without parsing prose.
func exitStatus(err error) (int, string) {
	switch {
	case errors.Is(err, gpapriori.ErrCheckpointMismatch):
		return 2, "checkpoint mismatch: " + err.Error()
	case errors.Is(err, gpapriori.ErrCheckpointCorrupt):
		return 3, "checkpoint corrupt: " + err.Error()
	}
	return 1, err.Error()
}

type runOpts struct {
	input, named, dsName     string
	scale, minsup            float64
	algo                     string
	maxLen, workers, devices int
	cpuShare, minConf        float64
	jsonOut, quiet           bool
	top                      int
	faults                   string

	checkpoint string
	resume     bool

	resultOnly  bool
	serveURL    string
	serveStats  bool
	noCache     bool
	priority    int
	deadlineSec float64

	retryMax, retryBaseMS        int
	retryJitter, retryTimeoutSec float64
	retrySeed                    int64
}

// jsonReport is the machine-readable output shape.
type jsonReport struct {
	Algorithm     string        `json:"algorithm"`
	MinSupport    int           `json:"min_support"`
	Transactions  int           `json:"transactions"`
	Itemsets      []jsonItemset `json:"itemsets"`
	Rules         []jsonRule    `json:"rules,omitempty"`
	HostSeconds   float64       `json:"host_seconds"`
	DeviceSeconds float64       `json:"device_seconds,omitempty"`
	Faults        *jsonFaults   `json:"fault_stats,omitempty"`
}

type jsonFaults struct {
	Injected           int     `json:"injected"`
	KernelFaults       int     `json:"kernel_faults"`
	TransferFaults     int     `json:"transfer_faults"`
	Hangs              int     `json:"hangs"`
	Retries            int     `json:"retries"`
	Failovers          int     `json:"failovers"`
	DegradedCandidates int     `json:"degraded_candidates"`
	RecoverySeconds    float64 `json:"recovery_seconds"`
	DeadDevices        []int   `json:"dead_devices,omitempty"`
}

type jsonItemset struct {
	Items   []gpapriori.Item `json:"items"`
	Names   []string         `json:"names,omitempty"`
	Support int              `json:"support"`
}

type jsonRule struct {
	Antecedent []gpapriori.Item `json:"antecedent"`
	Consequent []gpapriori.Item `json:"consequent"`
	Support    float64          `json:"support"`
	Confidence float64          `json:"confidence"`
	Lift       float64          `json:"lift"`
}

func run(w io.Writer, o runOpts) error {
	if o.serveURL != "" {
		return runServe(w, o)
	}
	db, dict, err := loadDatabase(o)
	if err != nil {
		return err
	}
	rel, abs, err := splitMinsup(o.minsup)
	if err != nil {
		return err
	}
	cfg := gpapriori.Config{
		Algorithm:       gpapriori.Algorithm(o.algo),
		MinSupport:      abs,
		RelativeSupport: rel,
		MaxLen:          o.maxLen,
		Workers:         o.workers,
		Devices:         o.devices,
		HybridCPUShare:  o.cpuShare,
		Faults:          o.faults,
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint to know where the snapshot lives")
	}
	if o.checkpoint != "" {
		cfg.Checkpoint = o.checkpoint
		if o.resume {
			cfg.ResumeFrom = o.checkpoint
		}
	}

	res, err := gpapriori.Mine(db, cfg)
	if err != nil {
		return err
	}

	var rules []gpapriori.Rule
	if o.minConf > 0 {
		rules, err = gpapriori.GenerateRules(res, db, o.minConf)
		if err != nil {
			return err
		}
	}

	if o.resultOnly {
		return writeCanonical(w, res.Itemsets)
	}
	if o.jsonOut {
		return emitJSON(w, db.Len(), dict, res, rules)
	}
	emitText(w, db, dict, res, rules, o)
	return nil
}

// splitMinsup reads -minsup as the library's two thresholds: a value in
// (0,1) is a ratio, a whole number ≥ 1 an absolute count. A fractional
// count is an error rather than silently rounded down.
func splitMinsup(minsup float64) (rel float64, abs int, err error) {
	switch {
	case minsup <= 0:
		return 0, 0, fmt.Errorf("-minsup (ratio or absolute count) is required")
	case minsup < 1:
		return minsup, 0, nil
	case minsup != math.Trunc(minsup) || math.IsInf(minsup, 1):
		return 0, 0, fmt.Errorf("-minsup %v: a count ≥ 1 must be a whole number", minsup)
	}
	return 0, int(minsup), nil
}

// writeCanonical prints the resultio-normalized result body — the same
// bytes for an offline run and a served one, which is what makes the
// two diffable.
func writeCanonical(w io.Writer, itemsets []gpapriori.Itemset) error {
	rs := &dataset.ResultSet{}
	for _, s := range itemsets {
		rs.Add(s.Items, s.Support)
	}
	return resultio.Write(w, rs)
}

// runServe is the -serve-url client mode: the request is submitted to a
// gpaserve daemon, the per-generation stream is reassembled into the
// same Result a local run produces, and the output paths are shared
// with offline mining.
func runServe(w io.Writer, o runOpts) error {
	if o.dsName == "" {
		return fmt.Errorf("-serve-url needs -dataset to name a registry entry on the daemon")
	}
	if o.input != "" || o.named != "" {
		return fmt.Errorf("-serve-url mines a daemon-registered dataset; -input and -named do not apply")
	}
	if o.minConf > 0 || o.checkpoint != "" || o.resume {
		return fmt.Errorf("-serve-url supports plain mining only (the daemon owns checkpointing)")
	}
	if o.workers != 0 || o.devices != 0 || o.cpuShare != 0 || o.faults != "" {
		return fmt.Errorf("-serve-url sends only the query; -workers, -devices, -cpushare and -faults tune offline mining")
	}
	if algo := gpapriori.Algorithm(o.algo).Resolve(); algo != gpapriori.AlgoPipeline {
		return fmt.Errorf("-serve-url mines with the %s; -algo %s runs offline only", gpapriori.AlgoPipeline, algo)
	}
	rel, abs, err := splitMinsup(o.minsup)
	if err != nil {
		return err
	}
	req := gpapriori.ServeMineRequest{
		Dataset:         o.dsName,
		MinSupport:      abs,
		RelativeSupport: rel,
		MaxLen:          o.maxLen,
		Priority:        o.priority,
		DeadlineSec:     o.deadlineSec,
		NoCache:         o.noCache,
	}
	cl, err := gpapriori.NewServeClient(gpapriori.ServeConfig{
		BaseURL: o.serveURL,
		Retry: gpapriori.RetryPolicy{
			MaxAttempts:    o.retryMax,
			BaseDelay:      time.Duration(o.retryBaseMS) * time.Millisecond,
			Jitter:         o.retryJitter,
			Seed:           o.retrySeed,
			AttemptTimeout: time.Duration(o.retryTimeoutSec * float64(time.Second)),
		},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	res, info, err := cl.Mine(ctx, req)
	if err != nil {
		return err
	}
	switch {
	case o.resultOnly:
		if err := writeCanonical(w, res.Itemsets); err != nil {
			return err
		}
	case o.jsonOut:
		if err := emitJSON(w, info.Transactions, nil, res, nil); err != nil {
			return err
		}
	default:
		emitServeText(w, info, res, o)
	}
	if o.serveStats {
		st, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		return emitServeStats(w, st)
	}
	return nil
}

// emitServeText is the text report of a served run.
func emitServeText(w io.Writer, info *gpapriori.ServeJobInfo, res *gpapriori.Result, o runOpts) {
	from := "mined"
	if info.Cached {
		from = "served from cache"
	}
	fmt.Fprintf(w, "job %s on dataset %q (%d transactions): %s\n",
		info.ID, info.Dataset, info.Transactions, from)
	emitResult(w, nil, res, o)
}

// emitServeStats summarizes a /statsz snapshot.
func emitServeStats(w io.Writer, st *gpapriori.ServeStats) error {
	fmt.Fprintf(w, "server: draining=%v queue=%d in-flight=%dB\n",
		st.Draining, st.QueueLen, st.InFlightBytes)
	fmt.Fprintf(w, "jobs: submitted=%d done=%d failed=%d shed=%d canceled=%d\n",
		st.Jobs.Submitted, st.Jobs.Done, st.Jobs.Failed, st.Jobs.Shed, st.Jobs.Canceled)
	c := st.Cache
	fmt.Fprintf(w, "cache: hits=%d misses=%d entries=%d bytes=%d/%d evictions=%d\n",
		c.Hits, c.Misses, c.Entries, c.Bytes, c.BudgetBytes, c.Evictions)
	for _, d := range st.Datasets {
		fmt.Fprintf(w, "dataset %s: %d transactions, %d items, %dB per-job bitset footprint\n",
			d.Name, d.Transactions, d.NumItems, d.BitsetBytes)
	}
	return nil
}

// emitJSON renders a run, offline or served, in the one jsonReport
// shape, so downstream tooling cannot tell where the mining happened.
func emitJSON(w io.Writer, transactions int, dict *gpapriori.Dictionary, res *gpapriori.Result, rules []gpapriori.Rule) error {
	rep := jsonReport{
		Algorithm:     string(res.Algorithm),
		MinSupport:    res.MinSupport,
		Transactions:  transactions,
		HostSeconds:   res.HostSeconds,
		DeviceSeconds: res.DeviceSeconds,
	}
	if f := res.Faults; f != nil {
		rep.Faults = &jsonFaults{
			Injected: f.Injected, KernelFaults: f.KernelFaults,
			TransferFaults: f.TransferFaults, Hangs: f.Hangs,
			Retries: f.Retries, Failovers: f.Failovers,
			DegradedCandidates: f.DegradedCandidates,
			RecoverySeconds:    f.RecoverySeconds,
			DeadDevices:        f.DeadDevices,
		}
	}
	for _, s := range res.Itemsets {
		js := jsonItemset{Items: s.Items, Support: s.Support}
		if dict != nil {
			for _, it := range s.Items {
				js.Names = append(js.Names, dict.Name(it))
			}
		}
		rep.Itemsets = append(rep.Itemsets, js)
	}
	for _, r := range rules {
		rep.Rules = append(rep.Rules, jsonRule{
			Antecedent: r.Antecedent, Consequent: r.Consequent,
			Support: r.Support, Confidence: r.Confidence, Lift: r.Lift,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func emitText(w io.Writer, db *gpapriori.Database, dict *gpapriori.Dictionary, res *gpapriori.Result, rules []gpapriori.Rule, o runOpts) {
	st := db.Stats()
	fmt.Fprintf(w, "database: %d transactions, %d items, avg length %.1f\n",
		st.NumTrans, st.NumItems, st.AvgLength)
	emitResult(w, dict, res, o)
	if rules != nil {
		fmt.Fprintf(w, "%d rules at confidence ≥ %.2f\n", len(rules), o.minConf)
		if !o.quiet {
			limit := len(rules)
			if o.top > 0 && o.top < limit {
				limit = o.top
			}
			for _, r := range rules[:limit] {
				if dict != nil {
					fmt.Fprintf(w, "  %s => %s (conf=%.2f lift=%.2f)\n",
						dict.Names(r.Antecedent), dict.Names(r.Consequent), r.Confidence, r.Lift)
				} else {
					fmt.Fprintln(w, "  "+r.String())
				}
			}
			if limit < len(rules) {
				fmt.Fprintf(w, "  ... and %d more\n", len(rules)-limit)
			}
		}
	}
}

// emitResult prints a run's headline, its timing line (a cache answer
// has no timings, so none), any fault line, and unless -quiet the top
// itemsets, by name when dict is set.
func emitResult(w io.Writer, dict *gpapriori.Dictionary, res *gpapriori.Result, o runOpts) {
	fmt.Fprintf(w, "%s @ minsup %d: %d frequent itemsets\n", res.Algorithm, res.MinSupport, res.Len())
	if res.HostSeconds > 0 || res.DeviceSeconds > 0 {
		fmt.Fprintf(w, "host time: %.4gs", res.HostSeconds)
		if res.DeviceSeconds > 0 {
			fmt.Fprintf(w, "  modeled device time: %.4gs", res.DeviceSeconds)
		}
		fmt.Fprintln(w)
	}
	if res.Faults != nil {
		fmt.Fprintf(w, "faults: %s\n", res.Faults)
	}
	if o.quiet {
		return
	}
	limit := len(res.Itemsets)
	if o.top > 0 && o.top < limit {
		limit = o.top
	}
	for _, s := range res.Itemsets[:limit] {
		if dict != nil {
			fmt.Fprintf(w, "  %s : %d\n", dict.Names(s.Items), s.Support)
		} else {
			fmt.Fprintf(w, "  %v : %d\n", s.Items, s.Support)
		}
	}
	if limit < len(res.Itemsets) {
		fmt.Fprintf(w, "  ... and %d more\n", len(res.Itemsets)-limit)
	}
}

func loadDatabase(o runOpts) (*gpapriori.Database, *gpapriori.Dictionary, error) {
	sources := 0
	for _, s := range []string{o.input, o.named, o.dsName} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, nil, fmt.Errorf("need exactly one of -input, -named, -dataset (datasets: %v)", gpapriori.PaperDatasets())
	}
	switch {
	case o.input != "":
		db, err := gpapriori.ReadDatabaseFile(o.input)
		return db, nil, err
	case o.named != "":
		f, err := os.Open(o.named)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		db, dict, err := gpapriori.ReadNamedDatabase(f)
		return db, dict, err
	default:
		db, err := gpapriori.GeneratePaperDataset(o.dsName, o.scale)
		return db, nil, err
	}
}
