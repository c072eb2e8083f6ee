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
//	gpapriori -input t40.dat -minsup 0.02 -approx 0.1         # sampling
//	gpapriori -dataset chess -scale 0.2 -minsup 0.8 -condense maximal
//	gpapriori -input chess.dat -minsup 0.9 -json > result.json
//	gpapriori -input t40.dat -minsup 0.02 -checkpoint run.ckpt       # durable
//	gpapriori -input t40.dat -minsup 0.02 -checkpoint run.ckpt -resume
//	gpapriori -input chess.dat -batch jobs.txt -batch-mem-mb 512     # job manager
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
	"os"
	"strconv"
	"strings"
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
		minsup   = flag.Float64("minsup", 0, "minimum support: ratio in (0,1) or absolute count ≥ 1")
		algo     = flag.String("algo", string(gpapriori.AlgoGPApriori), "algorithm (see gpapriori.Algorithms)")
		maxLen   = flag.Int("maxlen", 0, "maximum itemset length (0 = unbounded)")
		workers  = flag.Int("workers", 0, "worker count for the pipeline algorithm (0 = GOMAXPROCS)")
		devices  = flag.Int("devices", 0, "simulated GPU count for gpapriori (0/1 = single)")
		cpuShare = flag.Float64("cpushare", 0, "hybrid CPU share in [0,1) for gpapriori")
		faults   = flag.String("faults", "", `inject device faults, e.g. "dev1:kernel-fail@gen3,dev2:dead@gen2" (kinds: kernel-fail, xfer-fail, hang[=sec], dead)`)
		seed     = flag.Int64("seed", 0, "fault-injector seed for reproducible fault runs")
		minConf  = flag.Float64("rules", 0, "also derive association rules at this confidence (0 = off)")
		condense = flag.String("condense", "", "condense output: closed or maximal")
		approx   = flag.Float64("approx", 0, "approximate mining: sample this fraction first (0 = exact)")
		topk     = flag.Int("topk", 0, "mine the K most frequent itemsets instead of using -minsup")
		ckpt     = flag.String("checkpoint", "", "write a crash-safe checkpoint here at generation boundaries")
		ckptN    = flag.Int("checkpoint-every", 1, "checkpoint every N generations")
		resume   = flag.Bool("resume", false, "fast-forward from the -checkpoint file if it exists")
		batch    = flag.String("batch", "", `batch job file: one "name priority minsup [algo] [deadline_sec]" per line`)
		batchQ   = flag.Int("batch-queue", 0, "batch mode: max jobs queued for admission (0 = default)")
		batchMem = flag.Int("batch-mem-mb", 1024, "batch mode: modeled memory budget for admitted jobs, MiB")
		batchW   = flag.Int("batch-workers", 0, "batch mode: concurrently running jobs (0 = default)")
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
		condense: *condense, approx: *approx, jsonOut: *jsonOut,
		top: *top, quiet: *quiet, topk: *topk,
		faults: *faults, seed: *seed,
		checkpoint: *ckpt, ckptEvery: *ckptN, resume: *resume,
		batch: *batch, batchQueue: *batchQ, batchMemMB: *batchMem, batchWorkers: *batchW,
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
	input, named, dsName      string
	scale, minsup             float64
	algo                      string
	maxLen, workers, devices  int
	cpuShare, minConf, approx float64
	condense                  string
	jsonOut, quiet            bool
	top, topk                 int
	faults                    string
	seed                      int64

	checkpoint string
	ckptEvery  int
	resume     bool

	batch                                string
	batchQueue, batchMemMB, batchWorkers int

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
	Approx        *jsonApprox   `json:"approx,omitempty"`
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

type jsonApprox struct {
	SampleSize int  `json:"sample_size"`
	Candidates int  `json:"candidates"`
	Exact      bool `json:"exact"`
}

func run(w io.Writer, o runOpts) error {
	if o.serveURL != "" {
		return runServe(w, o)
	}
	db, dict, err := loadDatabase(o)
	if err != nil {
		return err
	}
	if o.batch == "" && o.minsup <= 0 && o.topk <= 0 {
		return fmt.Errorf("-minsup (ratio or absolute count) or -topk is required")
	}
	cfg := gpapriori.Config{
		Algorithm:      gpapriori.Algorithm(o.algo),
		MaxLen:         o.maxLen,
		Workers:        o.workers,
		Devices:        o.devices,
		HybridCPUShare: o.cpuShare,
		Faults:         o.faults,
		FaultSeed:      o.seed,
	}
	if o.minsup < 1 {
		cfg.RelativeSupport = o.minsup
	} else {
		cfg.MinSupport = int(o.minsup)
	}

	if o.batch != "" {
		if o.minConf > 0 || o.condense != "" || o.approx > 0 || o.topk > 0 {
			return fmt.Errorf("-batch cannot be combined with -rules, -condense, -approx, or -topk")
		}
		return runBatch(w, db, cfg, o)
	}

	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint to know where the snapshot lives")
	}
	if o.checkpoint != "" {
		if o.topk > 0 || o.approx > 0 {
			return fmt.Errorf("-checkpoint supports plain mining only, not -topk or -approx")
		}
		cfg.Checkpoint = o.checkpoint
		cfg.CheckpointEvery = o.ckptEvery
		if o.resume {
			cfg.ResumeFrom = o.checkpoint
		}
	}

	var res *gpapriori.Result
	var approxInfo *jsonApprox
	if o.topk > 0 {
		res, err = gpapriori.MineTopK(db, o.topk, 1, cfg)
		if err != nil {
			return err
		}
	} else if o.approx > 0 {
		s, err := gpapriori.MineSampled(db, cfg, gpapriori.SamplingConfig{Fraction: o.approx})
		if err != nil {
			return err
		}
		res = &s.Result
		approxInfo = &jsonApprox{SampleSize: s.SampleSize, Candidates: s.Candidates, Exact: s.Exact}
	} else {
		res, err = gpapriori.Mine(db, cfg)
		if err != nil {
			return err
		}
	}

	switch o.condense {
	case "":
	case "closed":
		res = gpapriori.ClosedItemsets(res)
	case "maximal":
		res = gpapriori.MaximalItemsets(res)
	default:
		return fmt.Errorf("-condense must be 'closed' or 'maximal'")
	}

	var rules []gpapriori.Rule
	if o.minConf > 0 {
		if o.condense != "" {
			return fmt.Errorf("-rules needs the full (non-condensed) result")
		}
		rules, err = gpapriori.GenerateRules(res, db, o.minConf)
		if err != nil {
			return err
		}
	}

	if o.resultOnly {
		return writeCanonical(w, res.Itemsets)
	}
	if o.jsonOut {
		return emitJSON(w, db, dict, res, rules, approxInfo)
	}
	emitText(w, db, dict, res, rules, approxInfo, o)
	return nil
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
	if o.input != "" || o.named != "" || o.batch != "" {
		return fmt.Errorf("-serve-url mines a daemon-registered dataset; -input, -named, and -batch do not apply")
	}
	if o.minConf > 0 || o.condense != "" || o.approx > 0 || o.topk > 0 ||
		o.checkpoint != "" || o.resume {
		return fmt.Errorf("-serve-url supports plain mining only (the daemon owns checkpointing)")
	}
	if o.minsup <= 0 {
		return fmt.Errorf("-minsup (ratio or absolute count) is required")
	}
	req := gpapriori.ServeMineRequest{
		Dataset:        o.dsName,
		Algorithm:      o.algo,
		MaxLen:         o.maxLen,
		Priority:       o.priority,
		DeadlineSec:    o.deadlineSec,
		Workers:        o.workers,
		Devices:        o.devices,
		HybridCPUShare: o.cpuShare,
		Faults:         o.faults,
		FaultSeed:      o.seed,
		NoCache:        o.noCache,
	}
	if o.minsup < 1 {
		req.RelativeSupport = o.minsup
	} else {
		req.MinSupport = int(o.minsup)
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
		if err := emitServeJSON(w, info, res); err != nil {
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

// emitServeJSON renders a served run in the offline jsonReport shape,
// so downstream tooling cannot tell where the mining happened.
func emitServeJSON(w io.Writer, info *gpapriori.ServeJobInfo, res *gpapriori.Result) error {
	rep := jsonReport{
		Algorithm:     string(res.Algorithm),
		MinSupport:    res.MinSupport,
		Transactions:  info.Transactions,
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
		rep.Itemsets = append(rep.Itemsets, jsonItemset{Items: s.Items, Support: s.Support})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// emitServeText is the text report of a served run.
func emitServeText(w io.Writer, info *gpapriori.ServeJobInfo, res *gpapriori.Result, o runOpts) {
	from := "mined"
	if info.Cached {
		from = "served from cache"
	}
	fmt.Fprintf(w, "job %s on dataset %q (%d transactions): %s\n",
		info.ID, info.Dataset, info.Transactions, from)
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
		fmt.Fprintf(w, "  %v : %d\n", s.Items, s.Support)
	}
	if limit < len(res.Itemsets) {
		fmt.Fprintf(w, "  ... and %d more\n", len(res.Itemsets)-limit)
	}
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
	if st.Faults.Injected > 0 {
		fmt.Fprintf(w, "faults: %s\n", st.Faults)
	}
	for _, d := range st.Datasets {
		fmt.Fprintf(w, "dataset %s: %d transactions, %d items, %dB resident\n",
			d.Name, d.Transactions, d.NumItems, d.BitsetBytes)
	}
	return nil
}

func emitJSON(w io.Writer, db *gpapriori.Database, dict *gpapriori.Dictionary, res *gpapriori.Result, rules []gpapriori.Rule, approx *jsonApprox) error {
	rep := jsonReport{
		Algorithm:     string(res.Algorithm),
		MinSupport:    res.MinSupport,
		Transactions:  db.Len(),
		HostSeconds:   res.HostSeconds,
		DeviceSeconds: res.DeviceSeconds,
		Approx:        approx,
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

func emitText(w io.Writer, db *gpapriori.Database, dict *gpapriori.Dictionary, res *gpapriori.Result, rules []gpapriori.Rule, approx *jsonApprox, o runOpts) {
	st := db.Stats()
	fmt.Fprintf(w, "database: %d transactions, %d items, avg length %.1f\n",
		st.NumTrans, st.NumItems, st.AvgLength)
	fmt.Fprintf(w, "%s @ minsup %d: %d frequent itemsets\n", res.Algorithm, res.MinSupport, res.Len())
	if approx != nil {
		fmt.Fprintf(w, "approximate: sample %d, %d candidates verified, exact=%v\n",
			approx.SampleSize, approx.Candidates, approx.Exact)
	}
	fmt.Fprintf(w, "host time: %.4gs", res.HostSeconds)
	if res.DeviceSeconds > 0 {
		fmt.Fprintf(w, "  modeled device time: %.4gs", res.DeviceSeconds)
	}
	fmt.Fprintln(w)
	if res.Faults != nil {
		fmt.Fprintf(w, "faults: %s\n", res.Faults)
	}

	if !o.quiet {
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

// batchJob is one parsed line of a -batch file.
type batchJob struct {
	name     string
	priority int
	minsup   float64
	algo     string
	deadline time.Duration
}

// parseBatchFile reads a batch job file: one job per line as
// "name priority minsup [algo] [deadline_sec]", where "-" keeps the
// command-line algorithm. Blank lines and "#" comments are skipped.
func parseBatchFile(path string) ([]batchJob, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jobs []batchJob
	for i, raw := range strings.Split(string(data), "\n") {
		text := strings.TrimSpace(raw)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 3 || len(f) > 5 {
			return nil, fmt.Errorf("%s: line %d: need 'name priority minsup [algo] [deadline_sec]'", path, i+1)
		}
		j := batchJob{name: f[0]}
		if j.priority, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("%s: line %d: bad priority %q: %w", path, i+1, f[1], err)
		}
		if j.minsup, err = strconv.ParseFloat(f[2], 64); err != nil || j.minsup <= 0 {
			return nil, fmt.Errorf("%s: line %d: bad minsup %q", path, i+1, f[2])
		}
		if len(f) >= 4 && f[3] != "-" {
			j.algo = f[3]
		}
		if len(f) == 5 {
			sec, err := strconv.ParseFloat(f[4], 64)
			if err != nil || sec <= 0 {
				return nil, fmt.Errorf("%s: line %d: bad deadline %q", path, i+1, f[4])
			}
			j.deadline = time.Duration(sec * float64(time.Second))
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("%s: no jobs", path)
	}
	return jobs, nil
}

// jsonBatchJob is one job's line of the batch-mode JSON report.
type jsonBatchJob struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	Itemsets int    `json:"itemsets,omitempty"`
	Error    string `json:"error,omitempty"`
}

// runBatch mines every job of a -batch file over the loaded database
// under the admission-controlled job manager, then reports each job's
// lifecycle outcome. Exit status is non-zero when any job fails.
func runBatch(w io.Writer, db *gpapriori.Database, base gpapriori.Config, o runOpts) error {
	specs, err := parseBatchFile(o.batch)
	if err != nil {
		return err
	}
	jm, err := gpapriori.NewJobManager(gpapriori.JobManagerConfig{
		QueueLimit:     o.batchQueue,
		MemoryBudgetMB: o.batchMemMB,
		Workers:        o.batchWorkers,
	})
	if err != nil {
		return err
	}
	defer jm.Close()

	if !o.jsonOut {
		fmt.Fprintf(w, "batch: %d jobs, %d MiB budget\n", len(specs), o.batchMemMB)
	}
	handles := make([]*gpapriori.MiningJob, len(specs))
	submitErrs := make([]error, len(specs))
	for i, s := range specs {
		cfg := base
		if s.minsup < 1 {
			cfg.RelativeSupport = s.minsup
			cfg.MinSupport = 0
		} else {
			cfg.MinSupport = int(s.minsup)
			cfg.RelativeSupport = 0
		}
		if s.algo != "" {
			cfg.Algorithm = gpapriori.Algorithm(s.algo)
		}
		if o.checkpoint != "" {
			cfg.Checkpoint = o.checkpoint + "." + s.name
			cfg.CheckpointEvery = o.ckptEvery
			if o.resume {
				cfg.ResumeFrom = cfg.Checkpoint
			}
		}
		handles[i], submitErrs[i] = jm.Submit(gpapriori.JobSpec{
			Name: s.name, Priority: s.priority, Deadline: s.deadline,
			DB: db, Config: cfg,
		})
	}

	failed := 0
	report := make([]jsonBatchJob, len(specs))
	for i, s := range specs {
		jr := jsonBatchJob{Name: s.name, Priority: s.priority}
		if submitErrs[i] != nil {
			jr.State = "rejected"
			jr.Error = submitErrs[i].Error()
			failed++
		} else {
			j := handles[i]
			<-j.Done()
			jr.State = j.State().String()
			if res, err := j.Result(); err != nil {
				jr.Error = err.Error()
				failed++
			} else {
				jr.Itemsets = res.Len()
			}
		}
		report[i] = jr
	}

	if o.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		for _, jr := range report {
			if jr.Error != "" {
				fmt.Fprintf(w, "  job %-12s [prio %d] %s: %s\n", jr.Name, jr.Priority, jr.State, jr.Error)
			} else {
				fmt.Fprintf(w, "  job %-12s [prio %d] %s: %d frequent itemsets\n", jr.Name, jr.Priority, jr.State, jr.Itemsets)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d batch jobs failed", failed, len(specs))
	}
	return nil
}
