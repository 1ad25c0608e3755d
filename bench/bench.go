// Package bench is the repository's end-to-end benchmark. Each of its
// four workloads drives public entry points of the GoAT reproduction the
// way a user does, checks every output, and reports what the user waits
// for (the end-to-end metrics). A traced run repeats each operation with
// timing wrappers around the detectors and sinks the benchmark hands in,
// and reports where the time went (the per-layer metrics). cmd/goatperf
// is the command line; README.md defines every workload and metric.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the run's time budget, set-up included: an operation
	// starts only while the median operation time so far still fits in
	// what is left of it. The first operation always runs.
	Seconds float64
	// Trace runs every operation a second time with timing wrappers and
	// reports the per-layer metrics instead of the end-to-end ones.
	Trace bool
	// Smoke shrinks every workload's inputs, and sets up once, for
	// tests. Checks that pin full-scale outputs are skipped; all others
	// still run.
	Smoke bool
	// Log receives one line per failed check; nil discards them.
	Log io.Writer
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's report, printed as one JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// MetricDef names a metric and its unit.
type MetricDef struct{ Name, Unit string }

// EndToEnd lists the metrics an untraced run reports, on every workload.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"op_s", "s"},
	{"work_per_s", "1/s"},
	{"task_p50_ms", "ms"},
	{"task_tail_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// PerLayer lists the metrics a traced run reports, on every workload.
// A layer a workload does not exercise reads 0.
var PerLayer = []MetricDef{
	{"trace_overhead_frac", "frac"},
	{"layers.coverage_frac", "frac"},
	{"alloc_bytes_per_work", "B/work"},
	{"engine.runs", "runs/op"},
	{"sim.events_per_run", "events/run"},
	{"sim.ns_per_event", "ns/event"},
	{"sim.steps_per_request", "steps/req"},
	{"sim.base_run_ns_per_event", "ns/event"},
	{"trace.batches_per_run", "calls/run"},
	{"trace.events_per_request", "events/req"},
	{"trace.batches_per_request", "calls/req"},
	{"trace.ring.ns_per_event", "ns/event"},
	{"trace.encode_ns_per_event", "ns/event"},
	{"trace.decode_ns_per_event", "ns/event"},
	{"trace.ect_bytes_per_event", "B/event"},
	{"trace.decode_alloc_bytes_per_event", "B/event"},
	{"detect.goat.ns_per_event", "ns/event"},
	{"detect.lockdl.ns_per_event", "ns/event"},
	{"detect.leak.ns_per_event", "ns/event"},
	{"detect.finish_ns_per_run", "ns/run"},
	{"profile.latency.ns_per_event", "ns/event"},
	{"profile.build_ns_per_event", "ns/event"},
	{"systematic.dpor_ms", "ms/op"},
	{"systematic.minimize_ms", "ms/op"},
	{"systematic.replay_ms", "ms/op"},
	{"systematic.dpor_runs", "runs/op"},
	{"systematic.considered", "count/op"},
	{"systematic.backtracks", "count/op"},
	{"systematic.sleep_hits", "count/op"},
	{"systematic.distinct_footprints", "count/op"},
	{"systematic.useful_ratio", "frac"},
	{"systematic.minimize_runs", "runs/op"},
	{"hb.build_deps_ns_per_event", "ns/event"},
	{"ingest.parse_ns_per_byte", "ns/B"},
	{"ingest.parse_alloc_bytes_per_byte", "B/B"},
	{"ingest.events_per_mb", "events/MB"},
	{"ingest.stranded_ms", "ms/op"},
}

// Workloads lists the workload names in README order.
var Workloads = []string{"table4", "soak", "minimize", "capture"}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// tailQuantile is the quantile task_tail_ms reports on each workload. It
// is fixed per workload rather than derived from the number of tasks, so
// a change that fits more operations into a run still reports the same
// statistic. Each leaves at least five tasks of a 25-second run beyond
// it (see README.md).
var tailQuantile = map[string]float64{
	"table4":   0.99,
	"soak":     0.90,
	"minimize": 0.99,
	"capture":  0.75,
}

// outcome is one operation's measurement and output.
type outcome struct {
	wall  time.Duration
	tasks []time.Duration // time to each verdict inside the operation
	work  int64           // work units done (see README)
	// print is the operation's output in a comparable form: a traced
	// rerun must reproduce it exactly.
	print string
	err   error // first failed check
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's inputs from scratch.
	setup() error
	// op runs operation i. With a non-nil tracer it times the layers and
	// adds their totals to the tracer.
	op(i int, tr *tracer) outcome
	// layers derives the workload's per-layer metrics from the totals of
	// its traced operations.
	layers(tr *tracer) map[string]float64
	// threads is the workload's threads of load: the GOMAXPROCS it runs at.
	threads() int
}

// tracer sums named per-layer totals over a run's traced operations.
type tracer struct {
	sum map[string]float64
	ops int
}

func (t *tracer) add(name string, v float64) { t.sum[name] += v }

// per returns the named total divided by another total, 0 when the
// divisor is 0.
func (t *tracer) per(name, by string) float64 {
	if d := t.sum[by]; d != 0 {
		return t.sum[name] / d
	}
	return 0
}

// perOp returns the named total per traced operation.
func (t *tracer) perOp(name string) float64 {
	if t.ops == 0 {
		return 0
	}
	return t.sum[name] / float64(t.ops)
}

func newWorkload(cfg Config) (workload, error) {
	switch cfg.Workload {
	case "table4":
		return newTable4(cfg), nil
	case "soak":
		return newSoak(cfg), nil
	case "minimize":
		return newMinimize(cfg), nil
	case "capture":
		return newCapture(cfg), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", cfg.Workload, Workloads)
}

// Run executes one benchmark run. An error means the workload could not
// be set up and no result exists; failed checks are counted in the
// result instead. Run sets GOMAXPROCS to the workload's threads of load
// for its duration.
func Run(cfg Config) (*Result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	return run(cfg, w)
}

func run(cfg Config, w workload) (*Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.threads()))

	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	res := &Result{Metrics: map[string]Metric{}}
	check := func(o outcome, what string, i int) {
		res.Attempted++
		if o.err != nil {
			res.Failed++
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "%s %s %d: %v\n", cfg.Workload, what, i, o.err)
			}
		}
	}
	// Every operation starts from a collected heap with its free pages
	// returned to the OS, so what the heap maps by the operation's end is
	// that operation's peak.
	var ms runtime.MemStats
	measure := func(i int, tr *tracer) (o outcome, peak, alloc uint64) {
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		o = w.op(i, tr)
		runtime.ReadMemStats(&ms)
		return o, ms.HeapSys - ms.HeapReleased, ms.TotalAlloc - before
	}

	// Set-up: build the inputs and run one warm-up operation, several
	// times over, so set-up cost is measured as a median like the rest.
	reps := setupReps
	if cfg.Smoke {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		o := w.op(0, nil)
		setups = append(setups, time.Since(t0).Seconds())
		check(o, "warm-up", 0)
	}

	var walls, rates, tasks, peaks, overhead []float64
	var work int64
	var allocBytes uint64
	tr := &tracer{sum: map[string]float64{}}
	plain := func(i int) outcome {
		o, peak, alloc := measure(i, nil)
		if o.err != nil && o.wall == 0 {
			// Failed before it measured anything: counted, not sampled.
			return o
		}
		walls = append(walls, o.wall.Seconds())
		rates = append(rates, float64(o.work)/o.wall.Seconds())
		for _, t := range o.tasks {
			tasks = append(tasks, t.Seconds())
		}
		peaks = append(peaks, float64(peak))
		work += o.work
		allocBytes += alloc
		return o
	}
	traced := func(i int) outcome {
		o, _, _ := measure(i, tr)
		tr.ops++
		return o
	}
	var iters []float64 // seconds per loop iteration
	for i := 0; i == 0 || time.Since(start)+time.Duration(median(iters)*1e9) < budget; i++ {
		t0 := time.Now()
		if !cfg.Trace {
			check(plain(i), "op", i)
			iters = append(iters, time.Since(t0).Seconds())
			continue
		}
		// Alternate which side runs first so warm caches favour neither.
		var p, t outcome
		if i%2 == 0 {
			p, t = plain(i), traced(i)
		} else {
			t, p = traced(i), plain(i)
		}
		if t.err == nil && p.print != t.print {
			t.err = fmt.Errorf("traced output differs from untraced output:\n  untraced: %s\n  traced:   %s", p.print, t.print)
		}
		check(p, "op", i)
		check(t, "traced op", i)
		if p.wall > 0 && t.wall > 0 {
			overhead = append(overhead, t.wall.Seconds()/p.wall.Seconds()-1)
		}
		iters = append(iters, time.Since(t0).Seconds())
	}
	res.Correct = res.Failed == 0

	if !cfg.Trace {
		res.put(EndToEnd, map[string]float64{
			"setup_s":      median(setups),
			"op_s":         median(walls),
			"work_per_s":   median(rates),
			"task_p50_ms":  percentile(tasks, 0.50) * 1e3,
			"task_tail_ms": percentile(tasks, tailQuantile[cfg.Workload]) * 1e3,
			"peak_heap_mb": median(peaks) / 1e6,
		})
		return res, nil
	}
	vals := w.layers(tr)
	vals["trace_overhead_frac"] = median(overhead)
	vals["layers.coverage_frac"] = tr.per("span.ns", "wall.ns")
	if work > 0 {
		vals["alloc_bytes_per_work"] = float64(allocBytes) / float64(work)
	}
	res.put(PerLayer, vals)
	return res, nil
}

// put fills the result with every listed metric, 0 where vals has none.
func (r *Result) put(defs []MetricDef, vals map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = Metric{Value: vals[d.Name], Unit: d.Unit}
	}
}

// Report writes the result to w as one JSON line and returns the exit
// code the command ends with: 0 when every check passed, 1 otherwise.
func Report(w io.Writer, res *Result) (int, error) {
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	if _, err := fmt.Fprintln(w, string(line)); err != nil {
		return 0, err
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the nearest-rank p-quantile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// mod returns x mod m in [0, m).
func mod(x, m int64) int64 { return ((x % m) + m) % m }
