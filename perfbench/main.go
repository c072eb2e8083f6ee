// Command perfbench is the benchmark of gpaserve's default served path.
// It boots in-process daemons the way gpaserve does by default, drives
// them with closed-loop ServeClient.Mine callers, checks every result
// against an offline reference, and reports end-to-end metrics, or,
// traced, per-layer metrics. See README.md for workloads and metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload miss --seed 1 --seconds 20 --trace 0
//	perfbench all [--seed 1] [--seconds 20]
//	perfbench compare OLD.out NEW.out
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "all":
		err = runAll(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = runCompare(os.Args[2:])
	default:
		err = runOne(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOne is the benchmark contract: one workload, one seed, and the
// result as the last line of output. A failed request makes it exit
// non-zero after printing.
func runOne(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (miss, hit, forward)")
	seed := fs.Int64("seed", 1, "workload seed: picks supports and request order")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be > 0 and --trace 0 or 1")
	}
	opt := runOptions{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	if opt.Trace {
		opt.SpansPath = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", w.Name, *seed))
	}
	rep, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	if err := rep.emit(os.Stdout); err != nil {
		return err
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	if len(rep.Errors) > 0 {
		return fmt.Errorf("%s: %d of %d requests failed or returned a wrong result", w.Name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runAll runs every workload untraced and traced, each in its own
// process, and prints the metrics with units and the accounting.
func runAll(args []string) error {
	fs := flag.NewFlagSet("perfbench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "length of each timed window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		var reps [2]*report
		for trace := 0; trace < 2; trace++ {
			var out bytes.Buffer
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(*seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(trace))
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			rep, err := readReport(&out)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %v (run: %v)", w.Name, trace, err, runErr)
			}
			if runErr != nil {
				failed = append(failed, fmt.Sprintf("%s trace=%d", w.Name, trace))
			}
			reps[trace] = rep
		}
		printSummary(os.Stdout, reps[0], reps[1])
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %v", failed)
	}
	return nil
}

// runCompare compares two saved outputs of one workload.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.out NEW.out")
	}
	a, err := readReportFile(args[0])
	if err != nil {
		return err
	}
	b, err := readReportFile(args[1])
	if err != nil {
		return err
	}
	return compare(os.Stdout, a, b)
}
