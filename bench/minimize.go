package bench

import (
	"fmt"
	"strings"
	"time"

	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/hb"
	"goat/internal/systematic"
)

// minimizeSweep is one pinned DPOR + minimize sweep over the 68 GoKer
// kernels at one seed: kernels with a finding, DPOR executions, and
// Minimize executions. All three are deterministic.
type minimizeSweep struct{ found, dporRuns, minRuns int }

// minimize searches every GoKer kernel with the DPOR explorer at D=3,
// shrinks each finding to a minimal witness and replays the witness to
// verify it. Buffered traces, hb.BuildDeps on every run and the
// systematic tree search: the same simulator used a different way.
type minimize struct {
	seed    int64
	smoke   bool
	kernels []goker.Kernel
}

func newMinimize(cfg Config) *minimize { return &minimize{seed: cfg.Seed, smoke: cfg.Smoke} }

// threads is 1 for the same reason as soak's: one simulator loop.
func (*minimize) threads() int { return 1 }

func (m *minimize) setup() error {
	m.kernels = goker.GoKer()
	if m.smoke {
		m.kernels = m.kernels[:3]
	}
	return nil
}

// sweepSeed maps operation i of a run with seed S to one of the pinned
// sweep seeds 1..len(minimizePins).
func (m *minimize) sweepSeed(i int) int64 {
	return 1 + mod(m.seed+int64(i), int64(len(minimizePins)))
}

func (m *minimize) op(i int, tr *tracer) outcome {
	seed := m.sweepSeed(i)
	cfg := systematic.Config{Seed: seed, MaxYields: 3, MaxRuns: 2000}
	var got minimizeSweep
	var print strings.Builder
	var o outcome
	var dporNs, minNs, replayNs int64
	t0 := time.Now()
	for _, k := range m.kernels {
		k0 := clock()
		f, st := systematic.ExploreDPOR(k.Main, cfg)
		k1 := clock()
		got.dporRuns += st.Runs
		dporNs += k1 - k0
		if tr != nil {
			tr.add("considered", float64(st.Considered))
			tr.add("backtracks", float64(st.Backtracks))
			tr.add("sleep_hits", float64(st.SleepHits))
			tr.add("footprints", float64(st.DistinctFootprints))
		}
		if f == nil {
			fmt.Fprintf(&print, "%s:none ", k.ID)
			o.tasks = append(o.tasks, time.Duration(k1-k0))
			continue
		}
		got.found++
		wit := systematic.Minimize(k.Main, f)
		k2 := clock()
		got.minRuns += wit.Runs - f.Runs
		d := detect.Goat{}.Detect(wit.Replay(k.Main))
		k3 := clock()
		minNs += k2 - k1
		replayNs += k3 - k2
		o.tasks = append(o.tasks, time.Duration(k3-k0))
		fmt.Fprintf(&print, "%s:%s@%s ", k.ID, wit.Detection.Verdict, wit.DecisionString())
		if !d.Found && o.err == nil {
			o.err = fmt.Errorf("%s seed %d: minimized witness [%s] does not replay to a detection (%s)",
				k.ID, seed, wit.DecisionString(), d.Verdict)
		}
	}
	o.wall = time.Since(t0)
	o.work = int64(got.dporRuns + got.minRuns + got.found)
	o.print = print.String()
	if want := minimizePins[seed-1]; !m.smoke && o.err == nil && got != want {
		o.err = fmt.Errorf("seed %d: found/DPOR runs/Minimize runs = %d/%d/%d, pinned %d/%d/%d",
			seed, got.found, got.dporRuns, got.minRuns, want.found, want.dporRuns, want.minRuns)
	}
	if tr != nil {
		tr.add("dpor.ns", float64(dporNs))
		tr.add("min.ns", float64(minNs))
		tr.add("replay.ns", float64(replayNs))
		tr.add("dpor_runs", float64(got.dporRuns))
		tr.add("min_runs", float64(got.minRuns))
		tr.add("runs", float64(o.work))
		tr.add("span.ns", float64(dporNs+minNs+replayNs))
		tr.add("wall.ns", float64(o.wall))
		m.probe(seed, tr)
	}
	return o
}

// probe times the simulator and hb.BuildDeps on each kernel's base
// schedule, the run every DPOR search starts from. It runs outside the
// operation's timed section.
func (m *minimize) probe(seed int64, tr *tracer) {
	for _, k := range m.kernels {
		t := clock()
		r := systematic.Finding{Seed: seed}.Replay(k.Main)
		runNs := since(t)
		t = clock()
		hb.BuildDeps(r.Trace, hb.Must)
		depsNs := since(t)
		tr.add("base.runs", 1)
		tr.add("base.events", float64(r.Trace.Len()))
		tr.add("base.ns", float64(runNs))
		tr.add("deps.ns", float64(depsNs))
	}
}

func (m *minimize) layers(tr *tracer) map[string]float64 {
	return map[string]float64{
		"engine.runs":                    tr.perOp("runs"),
		"sim.events_per_run":             tr.per("base.events", "base.runs"),
		"sim.base_run_ns_per_event":      tr.per("base.ns", "base.events"),
		"hb.build_deps_ns_per_event":     tr.per("deps.ns", "base.events"),
		"systematic.dpor_ms":             tr.perOp("dpor.ns") / 1e6,
		"systematic.minimize_ms":         tr.perOp("min.ns") / 1e6,
		"systematic.replay_ms":           tr.perOp("replay.ns") / 1e6,
		"systematic.dpor_runs":           tr.perOp("dpor_runs"),
		"systematic.considered":          tr.perOp("considered"),
		"systematic.backtracks":          tr.perOp("backtracks"),
		"systematic.sleep_hits":          tr.perOp("sleep_hits"),
		"systematic.distinct_footprints": tr.perOp("footprints"),
		"systematic.useful_ratio":        tr.per("footprints", "dpor_runs"),
		"systematic.minimize_runs":       tr.perOp("min_runs"),
	}
}

// minimizePins holds the sweeps of seeds 1..64, in order.
var minimizePins = []minimizeSweep{
	{66, 539, 22},
	{67, 532, 21},
	{67, 532, 21},
	{67, 532, 21},
	{64, 555, 22},
	{64, 555, 22},
	{67, 532, 21},
	{64, 560, 22},
	{66, 539, 22},
	{67, 532, 21},
	{67, 532, 21},
	{66, 539, 22},
	{67, 532, 21},
	{64, 555, 22},
	{67, 532, 21},
	{66, 539, 22},
	{66, 539, 22},
	{64, 555, 22},
	{66, 539, 22},
	{67, 532, 21},
	{66, 539, 22},
	{66, 539, 22},
	{67, 532, 21},
	{66, 539, 22},
	{64, 555, 22},
	{66, 539, 22},
	{66, 539, 22},
	{67, 532, 21},
	{66, 539, 22},
	{66, 539, 22},
	{67, 532, 21},
	{66, 539, 22},
	{66, 539, 22},
	{66, 539, 22},
	{64, 554, 22},
	{66, 539, 22},
	{67, 532, 21},
	{67, 532, 21},
	{67, 532, 21},
	{64, 556, 22},
	{64, 556, 22},
	{67, 532, 21},
	{66, 539, 22},
	{64, 555, 22},
	{66, 539, 22},
	{64, 555, 22},
	{67, 532, 21},
	{67, 532, 21},
	{66, 539, 22},
	{66, 539, 22},
	{67, 532, 21},
	{67, 532, 21},
	{64, 556, 22},
	{67, 532, 21},
	{64, 554, 22},
	{64, 554, 22},
	{64, 555, 22},
	{67, 532, 21},
	{66, 539, 22},
	{67, 532, 21},
	{67, 532, 21},
	{66, 539, 22},
	{64, 554, 22},
	{66, 539, 22},
}
