package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark-regression guard. A baseline file (BENCH_baseline.json) maps
// benchmark names to ns/op (and, for -benchmem reports, allocs/op);
// `goatbench -compare <bench-output>` parses a `go test -bench` text
// report, compares every benchmark present in both against the baseline,
// and exits non-zero when any regresses past the tolerance.
// `-update-baseline` rewrites the baseline from the report instead. The
// guard is advisory in CI (continue-on-error) — virtualised runners make
// absolute ns/op noisy — but it catches order-of-magnitude mistakes (an
// accidental O(n²), a lost fast path, a per-event allocation in a hot
// loop) before they land. Allocations are deterministic, so allocs/op is
// the sharper of the two signals despite sharing the tolerance.

type baseline struct {
	// Tolerance is the allowed fractional slowdown before the guard
	// fails, e.g. 0.25 = 25%. The -tolerance flag overrides it.
	Tolerance float64 `json:"tolerance"`
	// NsPerOp maps benchmark name (goos/goarch/-cpu suffix stripped) to
	// the baseline ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp maps benchmark name to the baseline allocs/op. Only
	// benchmarks run with -benchmem appear; absent entries are unguarded.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// benchReport is the parsed form of a `go test -bench` text report.
type benchReport struct {
	nsPerOp     map[string]float64
	allocsPerOp map[string]float64
}

// parseBenchOutput extracts name → ns/op (and allocs/op when present)
// from `go test -bench` output. Lines look like:
//
//	BenchmarkChannelPingPong-8   	   12345	     98765 ns/op	 2048 B/op	   32 allocs/op
//
// The -N cpu suffix is stripped so baselines transfer across machines.
func parseBenchOutput(path string) (*benchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep := &benchReport{
		nsPerOp:     map[string]float64{},
		allocsPerOp: map[string]float64{},
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var ns, allocs float64
		foundNs, foundAllocs := false, false
		for i := 2; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				if v, err := strconv.ParseFloat(fields[i-1], 64); err == nil {
					ns, foundNs = v, true
				}
			case "allocs/op":
				if v, err := strconv.ParseFloat(fields[i-1], 64); err == nil {
					allocs, foundAllocs = v, true
				}
			}
		}
		if !foundNs {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		rep.nsPerOp[name] = ns
		if foundAllocs {
			rep.allocsPerOp[name] = allocs
		}
	}
	return rep, sc.Err()
}

// runCompare implements -compare / -update-baseline. Returns the process
// exit code.
func runCompare(reportPath, baselinePath string, tolerance float64, update bool) int {
	got, err := parseBenchOutput(reportPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goatbench: reading bench report: %v\n", err)
		return 2
	}
	if len(got.nsPerOp) == 0 {
		fmt.Fprintf(os.Stderr, "goatbench: no benchmark results in %s\n", reportPath)
		return 2
	}

	if update {
		base := baseline{Tolerance: tolerance, NsPerOp: got.nsPerOp}
		if len(got.allocsPerOp) > 0 {
			base.AllocsPerOp = got.allocsPerOp
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "goatbench: %v\n", err)
			return 2
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "goatbench: writing baseline: %v\n", err)
			return 2
		}
		fmt.Printf("wrote %s with %d benchmark(s)\n", baselinePath, len(got.nsPerOp))
		return 0
	}

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goatbench: reading baseline: %v\n", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "goatbench: parsing baseline: %v\n", err)
		return 2
	}
	if tolerance <= 0 {
		tolerance = base.Tolerance
	}
	if tolerance <= 0 {
		tolerance = 0.25
	}

	regressed, missing := 0, 0
	compareMetric := func(metric string, want, now map[string]float64) {
		var names []string
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("%-36s %14s %14s %9s\n", "benchmark", "base "+metric, "now "+metric, "delta")
		for _, name := range names {
			w := want[name]
			n, ok := now[name]
			if !ok {
				// A guarded benchmark that was deleted or renamed (or
				// ran without -benchmem) must not drop its guard silently.
				fmt.Printf("%-36s %14.0f %14s %9s  REGRESSED\n", name, w, "-", "missing")
				missing++
				continue
			}
			var delta float64
			switch {
			case w != 0:
				delta = (n - w) / w
			case n != 0:
				delta = 1 // zero-alloc baseline broken: any alloc regresses
			}
			mark := ""
			if delta > tolerance {
				mark = "  REGRESSED"
				regressed++
			}
			fmt.Printf("%-36s %14.0f %14.0f %+8.1f%%%s\n", name, w, n, delta*100, mark)
		}
		fmt.Println()
	}
	compareMetric("ns/op", base.NsPerOp, got.nsPerOp)
	if len(base.AllocsPerOp) > 0 {
		compareMetric("allocs/op", base.AllocsPerOp, got.allocsPerOp)
	}
	if regressed > 0 || missing > 0 {
		fmt.Printf("%d benchmark metric(s) regressed more than %.0f%%, %d missing from the report\n",
			regressed, tolerance*100, missing)
		return 1
	}
	fmt.Printf("all benchmarks within %.0f%% of baseline\n", tolerance*100)
	return 0
}
