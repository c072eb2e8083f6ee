// Command benchjson converts `go test -bench -benchmem` text output on
// stdin into a machine-readable JSON snapshot on stdout, computing
// speedups of each counting variant against its shape's complete-
// intersection baseline (sub-benchmarks named .../shape=S/variant=complete
// anchor the comparison for every other .../shape=S/... entry).
//
// BenchmarkMinePipeline/shape=S/workers=N rows are additionally folded
// into a per-shape "scaling" section: speedup over the workers=1 point,
// speedup over the shape's complete baseline, and a monotone flag that
// tolerates ~10% jitter between successive worker counts (single-CPU
// benchmark hosts produce flat curves where strict monotonicity is just
// noise).
//
// With -prev FILE the report also carries a "delta" section comparing
// every benchmark against the prior snapshot: ns/op and allocs/op
// ratios (current / previous), so a regression shows up as a ratio
// above 1 in the committed diff.
//
// Every report records what produced it: the commit given by -commit,
// the Go version of the toolchain running benchjson (scripts/bench.sh
// runs it with the toolchain that ran the benchmarks), and GOMAXPROCS,
// read from the -N suffix go test appends to benchmark names (no
// suffix means 1). A delta names the commits of both snapshots, so
// -prev requires -commit.
//
// scripts/bench.sh pipes the repo's benchmark suite through it to emit
// the committed BENCH_<date>.json performance snapshots.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmark is one parsed benchmark result line.
type benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// speedup compares one shape=/variant= (or workers=) entry against the
// complete-intersection baseline of the same shape.
type speedup struct {
	Shape             string  `json:"shape"`
	Benchmark         string  `json:"benchmark"`
	BaselineNsPerOp   float64 `json:"baseline_ns_per_op"`
	NsPerOp           float64 `json:"ns_per_op"`
	SpeedupVsComplete float64 `json:"speedup_vs_complete"`
}

// scalingPoint is one workers=N measurement of the pipeline sweep.
type scalingPoint struct {
	Workers           int     `json:"workers"`
	NsPerOp           float64 `json:"ns_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	SpeedupVsW1       float64 `json:"speedup_vs_w1"`
	SpeedupVsComplete float64 `json:"speedup_vs_complete,omitempty"`
}

// scaling is the worker-sweep curve for one dataset shape.
type scaling struct {
	Shape  string         `json:"shape"`
	Points []scalingPoint `json:"points"`
	// Monotone is true when ns/op never regresses by more than
	// monotoneTolerance stepping to a higher worker count. On a 1-CPU
	// host the curve is flat, so the tolerance is what separates
	// "scaling plumbing broke" from scheduler noise.
	Monotone bool `json:"monotone"`
}

// delta compares one benchmark against the previous committed snapshot.
// Ratios are current/previous: >1 means slower / more allocations.
type delta struct {
	Benchmark   string  `json:"benchmark"`
	PrevNsPerOp float64 `json:"prev_ns_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsRatio     float64 `json:"ns_ratio"`
	PrevAllocs  int64   `json:"prev_allocs_per_op"`
	Allocs      int64   `json:"allocs_per_op"`
	AllocsRatio float64 `json:"allocs_ratio,omitempty"`
}

type report struct {
	Date       string      `json:"date"`
	Commit     string      `json:"commit,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Packages   []string    `json:"packages,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
	Speedups   []speedup   `json:"speedups,omitempty"`
	MaxSpeedup float64     `json:"max_speedup_vs_complete,omitempty"`
	Scaling    []scaling   `json:"scaling,omitempty"`
	Prev       string      `json:"prev,omitempty"`
	PrevCommit string      `json:"prev_commit,omitempty"`
	Deltas     []delta     `json:"delta,omitempty"`
}

// monotoneTolerance is the allowed per-step ns/op regression before a
// worker curve is flagged non-monotone.
const monotoneTolerance = 1.10

// benchLine matches e.g.
//
//	BenchmarkFoo/shape=chess/variant=complete-8  37  31705947 ns/op  12 B/op  0 allocs/op
//
// capturing the name, the GOMAXPROCS suffix, iterations, ns/op and the
// remaining metrics.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

var (
	mbRe      = regexp.MustCompile(`([\d.]+) MB/s`)
	bytesRe   = regexp.MustCompile(`(\d+) B/op`)
	allocsRe  = regexp.MustCompile(`(\d+) allocs/op`)
	shapeRe   = regexp.MustCompile(`shape=([^/]+)`)
	workersRe = regexp.MustCompile(`/workers=(\d+)$`)
)

// parse reads benchmark text from in, keeping the fastest run per name
// (-count>1 repeats each benchmark; external load only ever slows a run
// down, so min is the standard noise-robust statistic).
func parse(in io.Reader) (report, error) {
	rep := report{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Packages = append(rep.Packages, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		if rep.GOMAXPROCS != 0 && procs != rep.GOMAXPROCS {
			return rep, fmt.Errorf("benchmarks ran at GOMAXPROCS %d and %d; a snapshot records one", rep.GOMAXPROCS, procs)
		}
		rep.GOMAXPROCS = procs
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		b := benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		if ns > 0 {
			b.OpsPerSec = 1e9 / ns
		}
		if mm := mbRe.FindStringSubmatch(m[5]); mm != nil {
			b.MBPerSec, _ = strconv.ParseFloat(mm[1], 64)
		}
		if mm := bytesRe.FindStringSubmatch(m[5]); mm != nil {
			b.BytesPerOp, _ = strconv.ParseInt(mm[1], 10, 64)
		}
		if mm := allocsRe.FindStringSubmatch(m[5]); mm != nil {
			b.AllocsPerOp, _ = strconv.ParseInt(mm[1], 10, 64)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}

	// -count>1 repeats each benchmark; keep the fastest run per name.
	byName := map[string]int{}
	dedup := rep.Benchmarks[:0]
	for _, b := range rep.Benchmarks {
		if i, ok := byName[b.Name]; ok {
			if b.NsPerOp < dedup[i].NsPerOp {
				dedup[i] = b
			}
			continue
		}
		byName[b.Name] = len(dedup)
		dedup = append(dedup, b)
	}
	rep.Benchmarks = dedup
	return rep, nil
}

// baselines extracts each shape's complete-intersection ns/op.
func baselines(rep *report) map[string]float64 {
	base := map[string]float64{}
	for _, b := range rep.Benchmarks {
		if sm := shapeRe.FindStringSubmatch(b.Name); sm != nil && strings.Contains(b.Name, "variant=complete") {
			base[sm[1]] = b.NsPerOp
		}
	}
	return base
}

// computeSpeedups fills rep.Speedups and rep.MaxSpeedup.
func computeSpeedups(rep *report, baseline map[string]float64) {
	for _, b := range rep.Benchmarks {
		sm := shapeRe.FindStringSubmatch(b.Name)
		if sm == nil || strings.Contains(b.Name, "variant=complete") {
			continue
		}
		base, ok := baseline[sm[1]]
		if !ok || b.NsPerOp == 0 {
			continue
		}
		s := speedup{
			Shape:             sm[1],
			Benchmark:         b.Name,
			BaselineNsPerOp:   base,
			NsPerOp:           b.NsPerOp,
			SpeedupVsComplete: base / b.NsPerOp,
		}
		rep.Speedups = append(rep.Speedups, s)
		if s.SpeedupVsComplete > rep.MaxSpeedup {
			rep.MaxSpeedup = s.SpeedupVsComplete
		}
	}
}

// computeScaling folds BenchmarkMinePipeline/shape=S/workers=N rows into
// per-shape worker curves.
func computeScaling(rep *report, baseline map[string]float64) {
	byShape := map[string][]scalingPoint{}
	for _, b := range rep.Benchmarks {
		if !strings.HasPrefix(b.Name, "BenchmarkMinePipeline/") {
			continue
		}
		sm := shapeRe.FindStringSubmatch(b.Name)
		wm := workersRe.FindStringSubmatch(b.Name)
		if sm == nil || wm == nil || b.NsPerOp == 0 {
			continue
		}
		w, _ := strconv.Atoi(wm[1])
		p := scalingPoint{Workers: w, NsPerOp: b.NsPerOp, AllocsPerOp: b.AllocsPerOp}
		if base, ok := baseline[sm[1]]; ok {
			p.SpeedupVsComplete = base / b.NsPerOp
		}
		byShape[sm[1]] = append(byShape[sm[1]], p)
	}
	shapes := make([]string, 0, len(byShape))
	for s := range byShape {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	for _, shape := range shapes {
		pts := byShape[shape]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Workers < pts[j].Workers })
		var w1 float64
		for _, p := range pts {
			if p.Workers == 1 {
				w1 = p.NsPerOp
				break
			}
		}
		sc := scaling{Shape: shape, Monotone: true}
		for i, p := range pts {
			if w1 > 0 {
				p.SpeedupVsW1 = w1 / p.NsPerOp
			}
			if i > 0 && p.NsPerOp > pts[i-1].NsPerOp*monotoneTolerance {
				sc.Monotone = false
			}
			sc.Points = append(sc.Points, p)
		}
		rep.Scaling = append(rep.Scaling, sc)
	}
}

// computeDeltas compares rep against a prior snapshot, by benchmark name.
func computeDeltas(rep *report, prev *report) {
	prevBy := map[string]benchmark{}
	for _, b := range prev.Benchmarks {
		prevBy[b.Name] = b
	}
	for _, b := range rep.Benchmarks {
		pb, ok := prevBy[b.Name]
		if !ok || pb.NsPerOp == 0 {
			continue
		}
		d := delta{
			Benchmark:   b.Name,
			PrevNsPerOp: pb.NsPerOp,
			NsPerOp:     b.NsPerOp,
			NsRatio:     b.NsPerOp / pb.NsPerOp,
			PrevAllocs:  pb.AllocsPerOp,
			Allocs:      b.AllocsPerOp,
		}
		if pb.AllocsPerOp > 0 {
			d.AllocsRatio = float64(b.AllocsPerOp) / float64(pb.AllocsPerOp)
		}
		rep.Deltas = append(rep.Deltas, d)
	}
}

// run converts benchmark text on in into a JSON report on out, stamped
// with commit. When prevPath names a prior BENCH_*.json, a delta
// section is included.
func run(in io.Reader, out io.Writer, prevPath, commit string) error {
	if prevPath != "" && commit == "" {
		return fmt.Errorf("-prev needs -commit: a delta must name the commits of both snapshots")
	}
	rep, err := parse(in)
	if err != nil {
		return err
	}
	rep.Date = time.Now().UTC().Format("2006-01-02T15:04:05Z")
	rep.Commit = commit
	rep.GoVersion = runtime.Version()
	base := baselines(&rep)
	computeSpeedups(&rep, base)
	computeScaling(&rep, base)
	if prevPath != "" {
		data, err := os.ReadFile(prevPath)
		if err != nil {
			return fmt.Errorf("read prev snapshot: %w", err)
		}
		prev := &report{}
		if err := json.Unmarshal(data, prev); err != nil {
			return fmt.Errorf("parse prev snapshot %s: %w", prevPath, err)
		}
		rep.Prev = prevPath
		rep.PrevCommit = prev.Commit
		if rep.PrevCommit == "" {
			rep.PrevCommit = "unrecorded"
		}
		computeDeltas(&rep, prev)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	prev := flag.String("prev", "", "prior BENCH_*.json to diff against (adds a delta section)")
	commit := flag.String("commit", "", "commit the benchmarks were built from (required with -prev)")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *prev, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
