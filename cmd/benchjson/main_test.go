package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// sample mimics `go test -bench -benchmem` output with a complete
// baseline, a repeated (count=2) variant row, and a pipeline worker
// sweep whose w=4 point regresses past the monotone tolerance.
const sample = `goos: linux
goarch: amd64
pkg: gpapriori/internal/apriori
cpu: Fake CPU @ 1.00GHz
BenchmarkMineCPUTest/shape=T40/variant=complete-8   	      10	  40000000 ns/op	 1000 B/op	  100 allocs/op
BenchmarkMineCPUTest/shape=T40/variant=prefix-8     	      50	  10000000 ns/op	  500 B/op	   50 allocs/op
BenchmarkMineCPUTest/shape=T40/variant=prefix-8     	      50	   8000000 ns/op	  500 B/op	   50 allocs/op
BenchmarkMinePipeline/shape=T40/workers=1-8         	     100	   4000000 ns/op	  400 B/op	   30 allocs/op
BenchmarkMinePipeline/shape=T40/workers=2-8         	     100	   4100000 ns/op	  400 B/op	   35 allocs/op
BenchmarkMinePipeline/shape=T40/workers=4-8         	     100	   5000000 ns/op	  400 B/op	   40 allocs/op
BenchmarkMinePipeline/shape=T40/workers=8-8         	     100	   4200000 ns/op	  400 B/op	   47 allocs/op
PASS
`

// sampleCommit stamps the sample reports.
const sampleCommit = "0123abcd"

func runSample(t *testing.T, prevPath string) report {
	t.Helper()
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out, prevPath, sampleCommit); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	return rep
}

func TestRunParsesAndDedups(t *testing.T) {
	rep := runSample(t, "")
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.CPU != "Fake CPU @ 1.00GHz" {
		t.Errorf("header fields wrong: %+v", rep)
	}
	// 7 input rows, one repeated name → 6 benchmarks, fastest kept.
	if len(rep.Benchmarks) != 6 {
		t.Fatalf("got %d benchmarks, want 6", len(rep.Benchmarks))
	}
	for _, b := range rep.Benchmarks {
		if strings.Contains(b.Name, "variant=prefix") && b.NsPerOp != 8000000 {
			t.Errorf("dedup kept %v ns/op for prefix, want fastest 8000000", b.NsPerOp)
		}
	}
}

func TestRunSpeedups(t *testing.T) {
	rep := runSample(t, "")
	want := map[string]float64{
		"BenchmarkMineCPUTest/shape=T40/variant=prefix": 5,  // 40ms / 8ms
		"BenchmarkMinePipeline/shape=T40/workers=1":     10, // 40ms / 4ms
	}
	got := map[string]float64{}
	for _, s := range rep.Speedups {
		got[s.Benchmark] = s.SpeedupVsComplete
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s speedup = %v, want %v", name, got[name], w)
		}
	}
	if rep.MaxSpeedup != 10 {
		t.Errorf("max speedup = %v, want 10", rep.MaxSpeedup)
	}
}

func TestRunScalingSection(t *testing.T) {
	rep := runSample(t, "")
	if len(rep.Scaling) != 1 {
		t.Fatalf("got %d scaling shapes, want 1", len(rep.Scaling))
	}
	sc := rep.Scaling[0]
	if sc.Shape != "T40" {
		t.Errorf("shape = %q, want T40", sc.Shape)
	}
	if len(sc.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(sc.Points))
	}
	for i, wantW := range []int{1, 2, 4, 8} {
		if sc.Points[i].Workers != wantW {
			t.Errorf("point %d workers = %d, want %d (sorted)", i, sc.Points[i].Workers, wantW)
		}
	}
	if got := sc.Points[0].SpeedupVsW1; got != 1 {
		t.Errorf("w1 speedup_vs_w1 = %v, want 1", got)
	}
	if got := sc.Points[2].SpeedupVsW1; math.Abs(got-0.8) > 1e-9 {
		t.Errorf("w4 speedup_vs_w1 = %v, want 0.8", got)
	}
	if got := sc.Points[0].SpeedupVsComplete; got != 10 {
		t.Errorf("w1 speedup_vs_complete = %v, want 10", got)
	}
	// 4.0 → 4.1ms is within the 10% tolerance, but 4.1 → 5.0ms is not.
	if sc.Monotone {
		t.Error("curve with a 22%% step regression reported monotone")
	}
}

func TestRunScalingMonotoneTolerance(t *testing.T) {
	flat := strings.ReplaceAll(sample, "5000000 ns/op", "4300000 ns/op")
	var out bytes.Buffer
	if err := run(strings.NewReader(flat), &out, "", ""); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scaling) != 1 || !rep.Scaling[0].Monotone {
		t.Errorf("flat-within-10%% curve flagged non-monotone: %+v", rep.Scaling)
	}
}

func TestRunPrevDelta(t *testing.T) {
	prev := report{
		Benchmarks: []benchmark{
			{Name: "BenchmarkMinePipeline/shape=T40/workers=1", NsPerOp: 8000000, AllocsPerOp: 60},
			{Name: "BenchmarkGone/shape=old/variant=thing", NsPerOp: 1, AllocsPerOp: 1},
		},
	}
	data, err := json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_prev.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := runSample(t, path)
	if rep.Prev != path {
		t.Errorf("prev = %q, want %q", rep.Prev, path)
	}
	if len(rep.Deltas) != 1 {
		t.Fatalf("got %d deltas, want 1 (only shared names): %+v", len(rep.Deltas), rep.Deltas)
	}
	d := rep.Deltas[0]
	if d.Benchmark != "BenchmarkMinePipeline/shape=T40/workers=1" {
		t.Errorf("delta benchmark = %q", d.Benchmark)
	}
	if math.Abs(d.NsRatio-0.5) > 1e-9 {
		t.Errorf("ns ratio = %v, want 0.5 (got faster)", d.NsRatio)
	}
	if math.Abs(d.AllocsRatio-0.5) > 1e-9 {
		t.Errorf("allocs ratio = %v, want 0.5", d.AllocsRatio)
	}
}

func TestRunPrevMissingFile(t *testing.T) {
	err := run(strings.NewReader(sample), &bytes.Buffer{}, filepath.Join(t.TempDir(), "nope.json"), sampleCommit)
	if err == nil {
		t.Fatal("missing -prev file did not error")
	}
}

func TestRunStampsProvenance(t *testing.T) {
	rep := runSample(t, "")
	if rep.Commit != sampleCommit {
		t.Errorf("commit = %q, want %q", rep.Commit, sampleCommit)
	}
	if rep.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", rep.GoVersion, runtime.Version())
	}
	if rep.GOMAXPROCS != 8 {
		t.Errorf("gomaxprocs = %d, want 8 from the -8 name suffix", rep.GOMAXPROCS)
	}
	// The suffix is part of no benchmark name.
	for _, b := range rep.Benchmarks {
		if strings.HasSuffix(b.Name, "-8") {
			t.Errorf("name %q keeps the GOMAXPROCS suffix", b.Name)
		}
	}
}

func TestRunGOMAXPROCSFromSuffix(t *testing.T) {
	parse := func(in string) (report, error) {
		var out bytes.Buffer
		if err := run(strings.NewReader(in), &out, "", sampleCommit); err != nil {
			return report{}, err
		}
		var rep report
		err := json.Unmarshal(out.Bytes(), &rep)
		return rep, err
	}
	// go test omits the suffix when GOMAXPROCS is 1.
	rep, err := parse(strings.ReplaceAll(sample, "-8 ", " "))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS != 1 {
		t.Errorf("gomaxprocs = %d without a suffix, want 1", rep.GOMAXPROCS)
	}
	mixed := strings.Replace(sample, "workers=8-8", "workers=8-4", 1)
	if _, err := parse(mixed); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("mixed GOMAXPROCS suffixes: err = %v, want a GOMAXPROCS error", err)
	}
}

func TestRunPrevNamesBothCommits(t *testing.T) {
	write := func(prev report) string {
		data, err := json.Marshal(prev)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH_prev.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rep := runSample(t, write(report{Commit: "feedbeef"}))
	if rep.Commit != sampleCommit || rep.PrevCommit != "feedbeef" {
		t.Errorf("commits = %q vs prev %q, want %q vs feedbeef", rep.Commit, rep.PrevCommit, sampleCommit)
	}
	// Snapshots from before commits were recorded say so.
	if rep := runSample(t, write(report{})); rep.PrevCommit != "unrecorded" {
		t.Errorf("prev_commit = %q for an unstamped snapshot, want unrecorded", rep.PrevCommit)
	}
	err := run(strings.NewReader(sample), &bytes.Buffer{}, write(report{}), "")
	if err == nil || !strings.Contains(err.Error(), "-commit") {
		t.Errorf("-prev without -commit: err = %v, want a -commit error", err)
	}
}
