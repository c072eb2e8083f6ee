package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// reportPrefix marks the line carrying a run's full report; the last
// line of output is the short result.
const reportPrefix = "perfbench-report "

// stamp identifies what produced a report.
type stamp struct {
	Commit string `json:"commit"`
	// Tree hashes every .go and go.mod file of the checkout, which
	// identifies the code when no commit is known.
	Tree         string `json:"tree_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	Seed         int64  `json:"seed"`
	WorkloadHash string `json:"workload_hash"`
}

// report is everything one run measured.
type report struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	WindowS   float64            `json:"window_s"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Boots     []bootTimes        `json:"boots"`
	// Owners is the cluster placement the window ran on: each dataset's
	// owners, primary first, as node indexes.
	Owners map[string][]int `json:"owners,omitempty"`
	// ClassLatencyMs is each class's min, median and max latency: where
	// p50 and p90 land depends on these ranges not overlapping.
	ClassLatencyMs map[string][3]float64 `json:"class_latency_ms"`
	// Accounting inputs of the traced run.
	SumLatencyMs     float64                       `json:"sum_latency_ms"`
	SumEngineMs      float64                       `json:"sum_engine_ms,omitempty"`
	SumFingerprintMs float64                       `json:"sum_fingerprint_ms,omitempty"`
	PerDataset       map[string]map[string]float64 `json:"per_dataset,omitempty"`
	Spans            string                        `json:"spans,omitempty"`
	Errors           []string                      `json:"errors,omitempty"`
}

func newReport(w *workload, p *plan, opt runOptions) *report {
	return &report{
		Stamp: stamp{
			Commit:       commit,
			Tree:         treeHash("."),
			GoVersion:    runtime.Version(),
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			NumCPU:       runtime.NumCPU(),
			Seed:         opt.Seed,
			WorkloadHash: p.hash(),
		},
		Workload: w.Name,
		Trace:    opt.Trace,
	}
}

// commit is set at build time by run.sh when the checkout is a git
// repository.
var commit = "unknown"

// treeHash hashes the Go sources under root, skipping build output.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// result is the last output line.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*metric `json:"metrics"`
}

// result selects the metrics of the run's kind: end to end untraced,
// per layer traced. A non-finite value (a failed request in a
// percentile) is reported as null.
func (r *report) result() result {
	out := result{Correct: len(r.Errors) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]*metric{}}
	names, vals := endToEnd, r.EndToEnd
	if r.Trace {
		names, vals = perLayer, r.Layers
	}
	for _, m := range names {
		v, ok := vals[m.Name]
		if !ok || math.IsInf(v, 0) || math.IsNaN(v) {
			out.Metrics[m.Name] = nil
			continue
		}
		out.Metrics[m.Name] = &metric{Value: v, Unit: m.Unit}
	}
	return out
}

// emit prints the report line and then the result line.
func (r *report) emit(w io.Writer) error {
	clean := *r
	clean.EndToEnd, clean.Layers = finite(r.EndToEnd), finite(r.Layers)
	rb, err := json.Marshal(clean)
	if err != nil {
		return err
	}
	res, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n%s\n", reportPrefix, rb, res)
	return err
}

// finite drops non-finite values, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			out[k] = v
		}
	}
	return out
}

// readReport finds the report line in a run's saved output.
func readReport(r io.Reader) (*report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), reportPrefix); ok {
			rep := &report{}
			if err := json.Unmarshal([]byte(line), rep); err != nil {
				return nil, fmt.Errorf("parsing report: %w", err)
			}
			return rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("no %q line", strings.TrimSpace(reportPrefix))
}

func readReportFile(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := readReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// errWorkloadMismatch refuses a comparison across different workloads.
type errWorkloadMismatch struct{ a, b string }

func (e errWorkloadMismatch) Error() string {
	return fmt.Sprintf("refusing to compare: workload hashes differ (%s vs %s); the runs sent different requests or configured the daemon differently", e.a, e.b)
}

// compare prints b's metrics against a's, both of one workload.
func compare(w io.Writer, a, b *report) error {
	if a.Stamp.WorkloadHash != b.Stamp.WorkloadHash {
		return errWorkloadMismatch{a.Stamp.WorkloadHash, b.Stamp.WorkloadHash}
	}
	fmt.Fprintf(w, "workload %s seed %d hash %s\n", a.Workload, a.Stamp.Seed, short(a.Stamp.WorkloadHash))
	fmt.Fprintf(w, "  A: commit %s tree %s %s GOMAXPROCS=%d\n", a.Stamp.Commit, short(a.Stamp.Tree), a.Stamp.GoVersion, a.Stamp.GOMAXPROCS)
	fmt.Fprintf(w, "  B: commit %s tree %s %s GOMAXPROCS=%d\n", b.Stamp.Commit, short(b.Stamp.Tree), b.Stamp.GoVersion, b.Stamp.GOMAXPROCS)
	for _, set := range []struct {
		names []struct{ Name, Unit string }
		a, b  map[string]float64
	}{{endToEnd, a.EndToEnd, b.EndToEnd}, {perLayer, a.Layers, b.Layers}} {
		for _, m := range set.names {
			va, oka := set.a[m.Name]
			vb, okb := set.b[m.Name]
			if !oka || !okb {
				continue
			}
			delta := "n/a"
			if va != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(vb-va)/va)
			}
			fmt.Fprintf(w, "  %-26s %12.4f %12.4f %-10s %s\n", m.Name, va, vb, m.Unit, delta)
		}
	}
	return nil
}

// short abbreviates a hash for display.
func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// printSummary prints one workload's untraced and traced reports: the
// end-to-end metrics, the layer metrics, and the accounting.
func printSummary(w io.Writer, plain, traced *report) {
	fmt.Fprintf(w, "== %s  seed %d  workload %s  commit %s  %s  GOMAXPROCS=%d nproc=%d\n",
		plain.Workload, plain.Stamp.Seed, short(plain.Stamp.WorkloadHash), plain.Stamp.Commit,
		plain.Stamp.GoVersion, plain.Stamp.GOMAXPROCS, plain.Stamp.NumCPU)
	fmt.Fprintf(w, "   %d requests in %.2fs, %d failed\n", plain.Attempted, plain.WindowS, plain.Failed)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "   %-26s %12.4f %s\n", m.Name, plain.EndToEnd[m.Name], m.Unit)
	}
	if traced == nil {
		return
	}
	fmt.Fprintf(w, "   traced: %d requests, %d failed\n", traced.Attempted, traced.Failed)
	for _, m := range perLayer {
		fmt.Fprintf(w, "   %-26s %12.4f %s\n", m.Name, traced.Layers[m.Name], m.Unit)
	}
	for _, line := range accounting(plain, traced) {
		fmt.Fprintf(w, "   %s\n", line)
	}
}

// accounting compares the traced run's layer sums with its end-to-end
// latency and the untraced run.
func accounting(plain, traced *report) []string {
	pt, pu := traced.EndToEnd["latency_p50_ms"], plain.EndToEnd["latency_p50_ms"]
	out := []string{fmt.Sprintf("tracing overhead: latency_p50_ms %.3f traced vs %.3f untraced (%+.1f%%)",
		pt, pu, 100*(pt-pu)/pu)}
	if traced.SumLatencyMs > 0 {
		out = append(out,
			fmt.Sprintf("share of summed latency (%.0f ms): engine.mine_ms %.1f%%, key.fingerprint_ms %.1f%%",
				traced.SumLatencyMs, 100*traced.SumEngineMs/traced.SumLatencyMs,
				100*traced.SumFingerprintMs/traced.SumLatencyMs))
	}
	names := make([]string, 0, len(traced.PerDataset))
	for name := range traced.PerDataset {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := traced.PerDataset[name]
		line := fmt.Sprintf("%-12s key.fingerprint_ms %8.3f  engine.mine_ms %9.3f", name, d["key.fingerprint_ms"], d["engine.mine_ms"])
		if x, ok := d["forward.extra_ms"]; ok {
			k := d["forward.fingerprint_ms"]
			line += fmt.Sprintf("  forward.extra_ms %8.3f vs key %8.3f timed alongside (%.2fx)", x, k, x/k)
		}
		out = append(out, line)
	}
	return out
}
