// Command goatperf runs one workload of the repository's end-to-end
// benchmark and prints its result as one JSON line on standard output:
//
//	goatperf -workload table4|soak|minimize|capture [-seed N] [-seconds S] [-trace 0|1] [-append FILE]
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// runs every operation a second time with timing wrappers and holds the
// per-layer metrics. Failed checks are reported on standard error, and
// the exit code is 1 when any operation failed, 2 on bad usage or when
// the workload cannot be set up. See ../../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"goat/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads, ", "))
	seed := flag.Int64("seed", 0, "input seed")
	seconds := flag.Float64("seconds", 15, "time budget of the run in seconds, set-up included")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced rerun of every operation")
	appendTo := flag.String("append", "", "also append the result, keyed by commit and time, as one JSON line to `file`")
	flag.Parse()
	if *workload == "" || flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := bench.Run(bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *traced == 1,
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "goatperf:", err)
		os.Exit(2)
	}
	if *appendTo != "" {
		if err := appendHistory(*appendTo, *workload, *seed, *traced, res); err != nil {
			fmt.Fprintln(os.Stderr, "goatperf:", err)
			os.Exit(2)
		}
	}
	code, err := bench.Report(os.Stdout, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goatperf:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// appendHistory appends one result line to the history file. It only
// ever appends: earlier lines are never rewritten.
func appendHistory(path, workload string, seed int64, traced int, res *bench.Result) error {
	rec := struct {
		Commit   string        `json:"commit"`
		Time     string        `json:"time"`
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Trace    int           `json:"trace"`
		Result   *bench.Result `json:"result"`
	}{commit(), time.Now().UTC().Format(time.RFC3339), workload, seed, traced, res}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}

// commit names the checked-out commit, "unknown" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
