package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"goat/bench"
)

// TestAppendHistoryOnlyAppends checks that -append adds one JSON line per
// run and leaves earlier lines untouched.
func TestAppendHistoryOnlyAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	res := &bench.Result{Correct: true, Attempted: 1, Metrics: map[string]bench.Metric{"op_s": {Value: 1.5, Unit: "s"}}}
	if err := appendHistory(path, "soak", 3, 0, res); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, "capture", 4, 1, res); err != nil {
		t.Fatal(err)
	}
	all, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(all, first) {
		t.Fatal("second append rewrote the first line")
	}
	lines := bytes.Split(bytes.TrimSpace(all), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var rec struct {
		Commit, Time, Workload string
		Seed                   int64
		Trace                  int
		Result                 bench.Result
	}
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Commit == "" || rec.Time == "" || rec.Workload != "capture" || rec.Seed != 4 || rec.Trace != 1 || rec.Result.Metrics["op_s"].Value != 1.5 {
		t.Fatalf("unexpected record %+v", rec)
	}
}
