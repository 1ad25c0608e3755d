package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sampleBench = `goos: linux
goarch: amd64
BenchmarkRunKernel-8         	    1000	   1200000 ns/op	  2048 B/op	      32 allocs/op
BenchmarkDetect/goat-16      	    5000	     40000 ns/op
BenchmarkNoUnits-8           	    9999	some garbage line
PASS
`

func TestParseBenchOutput(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "bench.txt", sampleBench)
	rep, err := parseBenchOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	// The -N cpu suffix is stripped; subtests keep their slash name.
	if got := rep.nsPerOp["BenchmarkRunKernel"]; got != 1200000 {
		t.Errorf("ns/op[BenchmarkRunKernel] = %v, want 1200000", got)
	}
	if got := rep.nsPerOp["BenchmarkDetect/goat"]; got != 40000 {
		t.Errorf("ns/op[BenchmarkDetect/goat] = %v, want 40000", got)
	}
	if _, ok := rep.nsPerOp["BenchmarkNoUnits"]; ok {
		t.Error("line without ns/op must be skipped")
	}
	if got := rep.allocsPerOp["BenchmarkRunKernel"]; got != 32 {
		t.Errorf("allocs/op[BenchmarkRunKernel] = %v, want 32", got)
	}
	if _, ok := rep.allocsPerOp["BenchmarkDetect/goat"]; ok {
		t.Error("benchmark without -benchmem must have no allocs entry")
	}
}

func TestParseBenchOutputMissingFile(t *testing.T) {
	if _, err := parseBenchOutput(filepath.Join(t.TempDir(), "absent.txt")); err == nil {
		t.Fatal("want error for missing report file")
	}
}

func baselineJSON(t *testing.T, b baseline) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCompareWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	report := writeFile(t, dir, "bench.txt",
		"BenchmarkA-8 100 110 ns/op\nBenchmarkB-8 100 90 ns/op\n")
	base := writeFile(t, dir, "base.json", baselineJSON(t, baseline{
		Tolerance: 0.25,
		NsPerOp:   map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100},
	}))
	if code := runCompare(report, base, 0, false); code != 0 {
		t.Fatalf("10%% slowdown within 25%% tolerance: exit %d, want 0", code)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	report := writeFile(t, dir, "bench.txt", "BenchmarkA-8 100 200 ns/op\n")
	base := writeFile(t, dir, "base.json", baselineJSON(t, baseline{
		Tolerance: 0.25,
		NsPerOp:   map[string]float64{"BenchmarkA": 100},
	}))
	if code := runCompare(report, base, 0, false); code != 1 {
		t.Fatalf("2x slowdown: exit %d, want 1", code)
	}
	// A wider explicit -tolerance overrides the baseline's own.
	if code := runCompare(report, base, 1.5, false); code != 0 {
		t.Fatalf("2x slowdown inside 150%% tolerance: exit %d, want 0", code)
	}
}

func TestCompareAllocsGuard(t *testing.T) {
	dir := t.TempDir()
	// ns/op improved, but allocations doubled — the alloc guard must fire.
	report := writeFile(t, dir, "bench.txt", "BenchmarkA-8 100 50 ns/op 512 B/op 64 allocs/op\n")
	base := writeFile(t, dir, "base.json", baselineJSON(t, baseline{
		Tolerance:   0.25,
		NsPerOp:     map[string]float64{"BenchmarkA": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 32},
	}))
	if code := runCompare(report, base, 0, false); code != 1 {
		t.Fatalf("alloc doubling: exit %d, want 1", code)
	}
	// A zero-alloc baseline treats any allocation as a regression.
	base = writeFile(t, dir, "base0.json", baselineJSON(t, baseline{
		Tolerance:   0.25,
		NsPerOp:     map[string]float64{"BenchmarkA": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 0},
	}))
	if code := runCompare(report, base, 0, false); code != 1 {
		t.Fatalf("broken zero-alloc baseline: exit %d, want 1", code)
	}
}

// TestCompareMissingBenchmarkFails: a baseline row with no measurement
// in the report (a deleted or renamed benchmark, or allocs/op without
// -benchmem) fails the guard instead of silently dropping it.
func TestCompareMissingBenchmarkFails(t *testing.T) {
	dir := t.TempDir()
	report := writeFile(t, dir, "bench.txt", "BenchmarkA-8 100 100 ns/op\n")
	base := writeFile(t, dir, "base.json", baselineJSON(t, baseline{
		Tolerance: 0.25,
		NsPerOp:   map[string]float64{"BenchmarkA": 100, "BenchmarkGone": 100},
	}))
	if code := runCompare(report, base, 0, false); code != 1 {
		t.Errorf("ns/op row missing from the report: exit %d, want 1", code)
	}
	base = writeFile(t, dir, "base-allocs.json", baselineJSON(t, baseline{
		Tolerance:   0.25,
		NsPerOp:     map[string]float64{"BenchmarkA": 100},
		AllocsPerOp: map[string]float64{"BenchmarkA": 32},
	}))
	if code := runCompare(report, base, 0, false); code != 1 {
		t.Errorf("allocs/op row missing from the report: exit %d, want 1", code)
	}
}

func TestCompareDefaultToleranceWhenUnset(t *testing.T) {
	dir := t.TempDir()
	report := writeFile(t, dir, "bench.txt", "BenchmarkA-8 100 120 ns/op\n")
	base := writeFile(t, dir, "base.json", baselineJSON(t, baseline{
		NsPerOp: map[string]float64{"BenchmarkA": 100}, // no tolerance field
	}))
	// 20% slowdown sits inside the implicit 25% default.
	if code := runCompare(report, base, 0, false); code != 0 {
		t.Fatalf("default tolerance: exit %d, want 0", code)
	}
}

func TestCompareErrorPaths(t *testing.T) {
	dir := t.TempDir()
	report := writeFile(t, dir, "bench.txt", "BenchmarkA-8 100 100 ns/op\n")
	empty := writeFile(t, dir, "empty.txt", "PASS\nok\n")
	malformed := writeFile(t, dir, "base.json", "{not json")

	if code := runCompare(report, filepath.Join(dir, "absent.json"), 0, false); code != 2 {
		t.Errorf("missing baseline: exit %d, want 2", code)
	}
	if code := runCompare(report, malformed, 0, false); code != 2 {
		t.Errorf("malformed baseline: exit %d, want 2", code)
	}
	if code := runCompare(empty, malformed, 0, false); code != 2 {
		t.Errorf("report without benchmarks: exit %d, want 2", code)
	}
	if code := runCompare(filepath.Join(dir, "absent.txt"), malformed, 0, false); code != 2 {
		t.Errorf("missing report: exit %d, want 2", code)
	}
}

func TestUpdateBaselineRoundTrips(t *testing.T) {
	dir := t.TempDir()
	report := writeFile(t, dir, "bench.txt",
		"BenchmarkA-8 100 100 ns/op 0 B/op 0 allocs/op\nBenchmarkB-8 100 250 ns/op\n")
	basePath := filepath.Join(dir, "base.json")
	if code := runCompare(report, basePath, 0.3, true); code != 0 {
		t.Fatalf("update-baseline: exit %d, want 0", code)
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("written baseline is not valid JSON: %v", err)
	}
	if base.Tolerance != 0.3 || base.NsPerOp["BenchmarkB"] != 250 || base.AllocsPerOp["BenchmarkA"] != 0 {
		t.Fatalf("baseline round-trip mismatch: %+v", base)
	}
	// The freshly written baseline must compare clean against its own report.
	if code := runCompare(report, basePath, 0, false); code != 0 {
		t.Fatalf("self-comparison after update: exit %d, want 0", code)
	}
}
