package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"goat/internal/goker"
	"goat/internal/harness"
)

// table4Seeds is the number of distinct matrix base seeds: matrix i of a
// run with seed S uses base seed (S+i) mod table4Seeds. Every one of
// them is checked to reproduce table4Detected.
const table4Seeds = 64

// table4Detected pins how many of the 68 GoKer bugs each Table IV column
// exposes within 1000 executions, for every base seed the workload uses.
var table4Detected = map[string]int{
	"builtin": 38, "lockdl": 38, "goleak": 30,
	"goat-D0": 68, "goat-D1": 68, "goat-D2": 68, "goat-D3": 68, "goat-D4": 68,
}

// table4 regenerates the paper's Table IV: every GoKer kernel under every
// tool column, 1000 executions per cell, two row workers. It is millions
// of short runs, so per-run set-up and the simulated goroutine switch
// dominate.
type table4 struct {
	seed    int64
	smoke   bool
	kernels []goker.Kernel
}

func newTable4(cfg Config) *table4 { return &table4{seed: cfg.Seed, smoke: cfg.Smoke} }

// threads is 2: the two row workers.
func (*table4) threads() int { return 2 }

func (t *table4) setup() error {
	t.kernels = goker.GoKer()
	if t.smoke {
		t.kernels = t.kernels[:4]
	}
	return nil
}

func (t *table4) op(i int, tr *tracer) outcome {
	cfg := harness.Config{
		MaxExecs: 1000,
		BaseSeed: mod(t.seed+int64(i), table4Seeds),
		Parallel: 2,
		Kernels:  t.kernels,
		Tools:    harness.DefaultTools(),
	}
	if t.smoke {
		cfg.MaxExecs = 20
	}
	accs := map[string]*layerAcc{}
	if tr != nil {
		for j, s := range cfg.Tools {
			acc := &layerAcc{}
			d, err := wrapDetector(s.Detector, acc)
			if err != nil {
				return outcome{err: err}
			}
			cfg.Tools[j].Detector = d
			accs[s.Name] = acc
		}
	}
	t0 := time.Now()
	tab := harness.RunTableIV(cfg)
	o := outcome{wall: time.Since(t0), print: tab.String()}

	var cellNs int64
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			o.tasks = append(o.tasks, c.Wall)
			o.work += int64(c.MinExecs)
			cellNs += int64(c.Wall)
		}
	}
	if failed := tab.FailedCells(); len(failed) > 0 {
		o.err = fmt.Errorf("%d failed cell(s), first %s/%s: %s %s",
			len(failed), failed[0].Bug, failed[0].Tool, failed[0].String(), failed[0].Err)
	} else if !t.smoke {
		o.err = checkDetected(tab.DetectedCount())
	}
	if tr != nil {
		t.trace(tr, accs, cellNs, o.wall, cfg.Parallel)
	}
	return o
}

// checkDetected compares the per-tool detected counts with the pins.
func checkDetected(got map[string]int) error {
	var bad []string
	for tool, want := range table4Detected {
		if got[tool] != want {
			bad = append(bad, fmt.Sprintf("%s=%d (want %d)", tool, got[tool], want))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("detected counts differ: %s", strings.Join(bad, ", "))
	}
	return nil
}

// trace adds one matrix's layer totals. Cell wall time splits into the
// detectors (stream deliveries, Finish, Reset) and everything else a
// cell does: the engine, the simulator, conc primitives and event emit.
func (t *table4) trace(tr *tracer, accs map[string]*layerAcc, cellNs int64, wall time.Duration, workers int) {
	var detNs, finNs, runs, events, calls int64
	for tool, a := range accs {
		detNs += a.ns.Load() + a.finishNs.Load()
		finNs += a.finishNs.Load()
		runs += a.runs.Load()
		events += a.events.Load()
		calls += a.calls.Load()
		switch {
		case strings.HasPrefix(tool, "goat-"):
			tr.add("goat.ns", float64(a.ns.Load()))
			tr.add("goat.events", float64(a.events.Load()))
		case tool == "lockdl":
			tr.add("lockdl.ns", float64(a.ns.Load()))
			tr.add("lockdl.events", float64(a.events.Load()))
		}
	}
	tr.add("runs", float64(runs))
	tr.add("events", float64(events))
	tr.add("calls", float64(calls))
	tr.add("finish.ns", float64(finNs))
	tr.add("sim.ns", float64(cellNs-detNs))
	tr.add("span.ns", float64(cellNs))
	tr.add("wall.ns", float64(wall)*float64(workers))
}

func (t *table4) layers(tr *tracer) map[string]float64 {
	return map[string]float64{
		"engine.runs":                tr.perOp("runs"),
		"sim.events_per_run":         tr.per("events", "runs"),
		"trace.batches_per_run":      tr.per("calls", "runs"),
		"sim.ns_per_event":           tr.per("sim.ns", "events"),
		"detect.goat.ns_per_event":   tr.per("goat.ns", "goat.events"),
		"detect.lockdl.ns_per_event": tr.per("lockdl.ns", "lockdl.events"),
		"detect.finish_ns_per_run":   tr.per("finish.ns", "runs"),
	}
}
