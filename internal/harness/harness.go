// Package harness drives the paper's evaluation: it runs every GoKer
// kernel under every tool configuration, records the minimum number of
// executions each tool needs to expose each bug, and regenerates Table IV
// and Figures 2, 4, 5 and 6.
//
// The harness is hardened against misbehaving kernels: every (bug, tool)
// cell runs under a panic quarantine and a wall-clock watchdog, cells that
// hang the host are retried with a fresh seed a bounded number of times,
// and a campaign always completes end-to-end — failed cells are annotated
// (ERR / HUNG) in Table IV and counted as not-detected by the figures
// instead of aborting the whole evaluation.
package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/fault"
	"goat/internal/goker"
	"goat/internal/gtree"
	"goat/internal/sim"
	"goat/internal/telemetry"
	"goat/internal/trace"
)

// Spec is one tool configuration (a Table IV column).
type Spec struct {
	// Name is the display name, e.g. "goat-D2".
	Name string
	// Detector classifies each execution.
	Detector detect.Detector
	// Delays is the yield bound D for the execution (baselines use 0:
	// they observe native schedules).
	Delays int
}

// Baselines returns the three baseline detector columns (builtin runtime
// detector, lock-order LockDL, end-of-main goleak), all observing native
// (D=0) schedules.
func Baselines() []Spec {
	return []Spec{
		{Name: "builtin", Detector: detect.Builtin{}},
		{Name: "lockdl", Detector: detect.LockDL{}},
		{Name: "goleak", Detector: detect.Goleak{}},
	}
}

// DiffTools returns the differential-fuzzing column lineup: the three
// baselines plus GoAT at D = 0..dmax.
func DiffTools(dmax int) []Spec {
	specs := Baselines()
	for d := 0; d <= dmax; d++ {
		specs = append(specs, Spec{
			Name:     fmt.Sprintf("goat-D%d", d),
			Detector: detect.Goat{},
			Delays:   d,
		})
	}
	return specs
}

// DefaultTools returns the paper's Table IV column lineup: the three
// baselines plus GoAT at D = 0..4.
func DefaultTools() []Spec { return DiffTools(4) }

// PredictSpec returns the predictive-detector column: one native (D=0)
// schedule per execution, mined for latent blocking hazards. A passing
// execution that contains predicted hazards is reported found with a
// POTENTIAL-k verdict.
func PredictSpec() Spec {
	return Spec{Name: "predict", Detector: detect.Predictive{}}
}

// ToolsWithPredict returns DefaultTools plus the predictive column.
// DefaultTools itself stays unchanged so existing goldens are stable.
func ToolsWithPredict() []Spec { return append(DefaultTools(), PredictSpec()) }

// Config bounds one evaluation campaign.
type Config struct {
	// MaxExecs is the per-(bug, tool) execution budget (paper: 1000).
	MaxExecs int
	// BaseSeed offsets every trial's seed, for independent repetitions.
	BaseSeed int64
	// Tools is the column lineup; nil selects DefaultTools.
	Tools []Spec
	// Kernels is the bug set; nil selects the full 68-kernel suite.
	Kernels []goker.Kernel
	// Parallel runs up to this many bug rows concurrently (each cell is
	// an independent deterministic campaign, so results are identical to
	// the sequential run). 0 or 1 = sequential.
	Parallel int

	// Faults enables deterministic fault injection for every execution of
	// the campaign (robustness benchmarking). The zero value disables it.
	Faults fault.Options

	// CellBudget bounds the wall-clock time one (bug, tool) cell may take
	// before the watchdog abandons it — the analogue of the paper's
	// 30-second watchdog, applied per cell instead of per process. Zero
	// selects the default (30s).
	CellBudget time.Duration

	// Retries is how many times a cell abandoned by the watchdog is
	// retried with a fresh seed before being recorded as HUNG. Zero
	// selects the default (1); negative disables retries.
	Retries int

	// FlightRecDir, when non-empty, attaches a bounded flight recorder to
	// every cell: a failed cell (ERR/HUNG) dumps the last events of its
	// in-flight run to <dir>/flightrec-<bug>-<tool>-<seed>.json in Chrome
	// trace-event format, and the cell records the path.
	FlightRecDir string

	// OnCell, when set, observes every completed cell (for live progress
	// reporting). It may be called from concurrent row workers and must be
	// safe for that.
	OnCell func(Cell)

	// Ctx cancels the campaign between executions: once it is done, the
	// in-flight cell finishes its current run, every not-yet-evaluated
	// cell is recorded CellCanceled, and the campaign returns a partial
	// (but fully populated) table so health reporting can flush what was
	// measured. Nil behaves like context.Background().
	Ctx context.Context
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

func (c Config) maxExecs() int {
	if c.MaxExecs <= 0 {
		return 1000
	}
	return c.MaxExecs
}

func (c Config) tools() []Spec {
	if c.Tools == nil {
		return DefaultTools()
	}
	return c.Tools
}

func (c Config) kernels() []goker.Kernel {
	if c.Kernels == nil {
		// The paper's evaluation set is the pinned 68-kernel GoKer suite;
		// runtime-registered fuzz reproducers are campaigned explicitly.
		return goker.GoKer()
	}
	return c.Kernels
}

func (c Config) cellBudget() time.Duration {
	if c.CellBudget <= 0 {
		return 30 * time.Second
	}
	return c.CellBudget
}

func (c Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 1
	}
	return c.Retries
}

// CellStatus records how a cell's evaluation ended at the host level.
type CellStatus uint8

const (
	// CellOK means the campaign loop ran to completion (whether or not
	// the bug was found).
	CellOK CellStatus = iota
	// CellErr means the cell's worker panicked; the panic was quarantined
	// and the campaign continued.
	CellErr
	// CellHung means the cell exceeded its wall-clock budget (even after
	// retries) and was abandoned by the watchdog.
	CellHung
	// CellCanceled means the campaign was canceled (Config.Ctx) before or
	// while the cell was being evaluated; the cell carries no verdict.
	CellCanceled
)

var cellStatusNames = [...]string{"ok", "err", "hung", "canceled"}

// String returns the status name.
func (s CellStatus) String() string {
	if int(s) < len(cellStatusNames) {
		return cellStatusNames[s]
	}
	return fmt.Sprintf("CellStatus(%d)", uint8(s))
}

// Cell is one (bug, tool) outcome: the minimum executions the tool needed
// to expose the bug, or Found=false after the budget. Status departs from
// CellOK when the cell itself failed at the host level.
type Cell struct {
	Bug      string
	Tool     string
	Found    bool
	MinExecs int    // 1-based count of executions until first detection
	Verdict  string // the detection's verdict at that execution

	Status  CellStatus
	Err     string // panic or watchdog message when Status != CellOK
	Retries int    // fresh-seed retries consumed by the watchdog

	Wall      time.Duration // wall-clock time the cell took (all attempts)
	FlightRec string        // flight-recorder dump path (failed cells only)
}

// Failed reports whether the cell failed at the host level (as opposed to
// merely not finding the bug).
func (c Cell) Failed() bool { return c.Status != CellOK }

// String renders the cell the way Table IV prints it: "PDL-2 (3)",
// "X (1000)", or the failure annotations "ERR!" / "HUNG!".
func (c Cell) String() string {
	switch c.Status {
	case CellErr:
		return "ERR!"
	case CellHung:
		return fmt.Sprintf("HUNG! (r%d)", c.Retries)
	case CellCanceled:
		return "CANC!"
	}
	if !c.Found {
		return fmt.Sprintf("X (%d)", c.MinExecs)
	}
	return fmt.Sprintf("%s (%d)", c.Verdict, c.MinExecs)
}

// MinExecs runs one kernel under one tool until first detection or the
// budget, returning the cell. This is the raw, unguarded campaign loop;
// RunTableIV wraps it in the quarantine/watchdog machinery via RunCell.
func MinExecs(k goker.Kernel, spec Spec, maxExecs int, baseSeed int64) Cell {
	return minExecs(k, spec, Config{}, maxExecs, baseSeed, nil)
}

// minExecs is the raw campaign loop; cfg contributes the faults while
// maxExecs and seed are explicit so watchdog retries can re-seed without
// touching the config.
func minExecs(k goker.Kernel, spec Spec, cfg Config, maxExecs int, seed int64, ring *flightRing) Cell {
	cell := Cell{Bug: k.ID, Tool: spec.Name}
	if maxExecs <= 0 {
		cell.MinExecs = maxExecs
		return cell
	}
	var sinks []trace.Sink
	if ring != nil {
		sinks = []trace.Sink{ring}
	}
	rep, err := engine.Run(cfg.ctx(), engine.Config{
		Prog: k.Main,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{
				Seed:   seed + int64(i),
				Delays: spec.Delays,
				Faults: cfg.Faults,
			}
		},
		Runs:        maxExecs,
		Detector:    spec.Detector,
		Sinks:       sinks,
		StopOnFound: true,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			cell.Status = CellCanceled
			cell.Err = "campaign canceled"
			return cell
		}
		// The cell's engine configuration is static and valid; any other
		// error is a programming bug, surfaced through the cell quarantine.
		panic(err)
	}
	if rep.Found != nil {
		cell.Found = true
		cell.MinExecs = rep.Found.Index + 1
		cell.Verdict = rep.Found.Detection.Verdict
		return cell
	}
	cell.MinExecs = maxExecs
	return cell
}

// retrySeedStride separates the seed space of watchdog retries from the
// per-trial seeds of the original attempt.
const retrySeedStride = int64(1) << 32

// flightRingCap bounds the flight recorder: the last N events of the
// in-flight run are retained for the failure dump.
const flightRingCap = 4096

// flightRing is the cell-level flight recorder: a mutex-guarded RingSink
// shared by every run of a cell's campaign. The mutex matters for HUNG
// cells, whose abandoned worker goroutine may still be appending events
// while the watchdog path snapshots the window. Close marks a run
// boundary; the next event resets the ring, so a snapshot always covers
// the tail of the most recent (failing) run, never a stale earlier one.
type flightRing struct {
	mu     sync.Mutex
	ring   *trace.RingSink
	closed bool
}

func newFlightRing() *flightRing {
	return &flightRing{ring: trace.NewRingSink(flightRingCap)}
}

// Event implements trace.Sink.
func (f *flightRing) Event(e trace.Event) {
	f.mu.Lock()
	if f.closed {
		f.ring.Reset()
		f.closed = false
	}
	f.ring.Event(e)
	f.mu.Unlock()
}

// Close implements trace.Sink (called by the runtime at each run's end).
func (f *flightRing) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// Unbatched implements the trace.Unbatched marker: the recorder must see
// events as they are emitted — the watchdog snapshots it while a hung
// run is still in flight, when batched delivery would hold exactly the
// events that matter.
func (f *flightRing) Unbatched() {}

// snapshot copies the recorded window and its drop count.
func (f *flightRing) snapshot() (*trace.Trace, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Snapshot(), f.ring.Dropped()
}

// dumpFlightRec writes a failed cell's recorded window as a Chrome
// trace-event file and records the path on the cell. Dump failures are
// swallowed: forensics must never fail a campaign.
func dumpFlightRec(dir string, cell *Cell, ring *flightRing, seed int64) {
	// Canceled cells are not failures worth forensics: the operator asked
	// the campaign to stop, so only ERR/HUNG cells dump their window.
	if dir == "" || ring == nil || (cell.Status != CellErr && cell.Status != CellHung) {
		return
	}
	tr, dropped := ring.snapshot()
	if tr.Len() == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("flightrec-%s-%s-%d.json", cell.Bug, cell.Tool, seed))
	w, err := os.Create(path)
	if err != nil {
		return
	}
	defer w.Close()
	if err := tr.EncodeChrome(w, trace.ChromeOptions{Dropped: dropped}); err != nil {
		return
	}
	cell.FlightRec = path
	telemetry.HarnessFlightRecs.Inc()
}

// RunCell evaluates one (bug, tool) cell under the hardened regime: the
// campaign loop runs in its own goroutine behind a panic quarantine and a
// wall-clock watchdog, and a cell abandoned by the watchdog is retried
// with a fresh seed up to cfg.retries() times. A worker that panics marks
// the cell ERR; one that exceeds the budget (on every attempt) marks it
// HUNG. The abandoned worker goroutine is left behind — the harness
// cannot kill it, only stop waiting — which is exactly the paper's
// watchdog-and-move-on regime.
func RunCell(k goker.Kernel, spec Spec, cfg Config) Cell {
	start := time.Now()
	var cell Cell
	lastDump := ""
	for attempt := 0; ; attempt++ {
		seed := cfg.BaseSeed + int64(attempt)*retrySeedStride
		cell = guardedMinExecs(k, spec, cfg, seed)
		cell.Retries = attempt
		if cell.FlightRec != "" {
			lastDump = cell.FlightRec
		}
		if cell.Status != CellHung || attempt >= cfg.retries() {
			break
		}
	}
	if cell.Failed() && cell.FlightRec == "" && lastDump != "" {
		// A retried attempt can hang before it emits a single event, so
		// its own flight ring is empty and produced no dump. The cell
		// still names the freshest forensic we have: the dump of the most
		// recent attempt that recorded one.
		cell.FlightRec = lastDump
	}
	cell.Wall = time.Since(start)
	if telemetry.Enabled() {
		telemetry.HarnessCells.Inc()
		telemetry.HarnessExecs.Add(int64(cell.MinExecs))
		telemetry.HarnessCellWall.Observe(cell.Wall.Nanoseconds())
		if cell.Found {
			telemetry.HarnessDetections.Inc()
		}
	}
	return cell
}

// guardedMinExecs is one watchdogged, quarantined attempt at a cell.
func guardedMinExecs(k goker.Kernel, spec Spec, cfg Config, seed int64) Cell {
	var ring *flightRing
	if cfg.FlightRecDir != "" {
		ring = newFlightRing()
	}
	done := make(chan Cell, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- Cell{Bug: k.ID, Tool: spec.Name, Status: CellErr, Err: fmt.Sprint(r)}
			}
		}()
		done <- minExecs(k, spec, cfg, cfg.maxExecs(), seed, ring)
	}()
	watchdog := time.NewTimer(cfg.cellBudget())
	defer watchdog.Stop()
	var cell Cell
	select {
	case c := <-done:
		cell = c
	case <-watchdog.C:
		cell = Cell{
			Bug: k.ID, Tool: spec.Name, Status: CellHung,
			Err: fmt.Sprintf("cell exceeded the %v wall-clock budget", cfg.cellBudget()),
		}
	case <-cfg.ctx().Done():
		// A canceled campaign must not keep waiting out the watchdog
		// budget of a hung worker; the abandoned goroutine is left behind
		// exactly as in the HUNG case.
		cell = Cell{
			Bug: k.ID, Tool: spec.Name, Status: CellCanceled,
			Err: "campaign canceled",
		}
	}
	dumpFlightRec(cfg.FlightRecDir, &cell, ring, seed)
	return cell
}

// TableIV is the full evaluation matrix.
type TableIV struct {
	Tools []string
	Rows  []TableIVRow
}

// TableIVRow is one bug's row.
type TableIVRow struct {
	Bug   string
	Cells []Cell // one per tool, in Tools order
}

// RunTableIV evaluates every kernel under every tool.
func RunTableIV(cfg Config) *TableIV {
	tools := cfg.tools()
	kernels := cfg.kernels()
	t := &TableIV{Rows: make([]TableIVRow, len(kernels))}
	for _, s := range tools {
		t.Tools = append(t.Tools, s.Name)
	}
	// evalRow is additionally wrapped in a row-level quarantine: RunCell
	// already contains per-cell recovery, but a panic in the row
	// bookkeeping itself must also be recorded as a failure instead of
	// killing the campaign (in Parallel mode an unrecovered panic in one
	// worker would take down the whole process).
	evalRow := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				row := TableIVRow{Bug: kernels[i].ID}
				for _, s := range tools {
					c := Cell{
						Bug: kernels[i].ID, Tool: s.Name,
						Status: CellErr, Err: fmt.Sprint(r),
					}
					if cfg.OnCell != nil {
						cfg.OnCell(c)
					}
					row.Cells = append(row.Cells, c)
				}
				t.Rows[i] = row
			}
		}()
		row := TableIVRow{Bug: kernels[i].ID}
		for _, s := range tools {
			var cell Cell
			if cfg.ctx().Err() != nil {
				// Canceled campaign: the matrix is still fully populated
				// so Table IV and CampaignHealth can flush partial results.
				cell = Cell{Bug: kernels[i].ID, Tool: s.Name, Status: CellCanceled, Err: "campaign canceled"}
			} else {
				cell = RunCell(kernels[i], s, cfg)
			}
			if cfg.OnCell != nil {
				cfg.OnCell(cell)
			}
			row.Cells = append(row.Cells, cell)
		}
		t.Rows[i] = row
	}
	if cfg.Parallel <= 1 {
		for i := range kernels {
			evalRow(i)
		}
		return t
	}
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for i := range kernels {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			evalRow(i)
		}()
	}
	wg.Wait()
	return t
}

// AssembleTableIV builds a Table IV from cells evaluated elsewhere — the
// shard-aware merge of the distributed campaign fabric, where each cell
// arrives from whichever worker held its lease. Rows are laid out in the
// given (bugs × tools) order, so a table assembled from a complete cell
// set is identical to RunTableIV's regardless of evaluation order. A
// missing cell is recorded CellCanceled ("not evaluated"), which is what
// a partially merged campaign (interrupted coordinator) reports.
func AssembleTableIV(bugs, tools []string, cell func(bug, tool string) (Cell, bool)) *TableIV {
	t := &TableIV{Tools: append([]string(nil), tools...)}
	t.Rows = make([]TableIVRow, len(bugs))
	for i, b := range bugs {
		row := TableIVRow{Bug: b}
		for _, tool := range tools {
			c, ok := cell(b, tool)
			if !ok {
				c = Cell{Bug: b, Tool: tool, Status: CellCanceled, Err: "not evaluated"}
			}
			row.Cells = append(row.Cells, c)
		}
		t.Rows[i] = row
	}
	return t
}

// FailedCells returns every cell that failed at the host level, in row
// order — the input of the campaign-health report.
func (t *TableIV) FailedCells() []Cell {
	var out []Cell
	for _, row := range t.Rows {
		for _, c := range row.Cells {
			if c.Failed() {
				out = append(out, c)
			}
		}
	}
	return out
}

// DetectedCount returns, per tool, how many bugs it exposed.
func (t *TableIV) DetectedCount() map[string]int {
	m := map[string]int{}
	for _, row := range t.Rows {
		for i, c := range row.Cells {
			if c.Found {
				m[t.Tools[i]]++
			}
		}
	}
	return m
}

// Column returns all cells of one tool.
func (t *TableIV) Column(tool string) []Cell {
	var out []Cell
	for _, row := range t.Rows {
		for i, c := range row.Cells {
			if t.Tools[i] == tool {
				out = append(out, c)
			}
		}
	}
	return out
}

// String renders the matrix as the paper's Table IV (text form).
func (t *TableIV) String() string {
	s := fmt.Sprintf("%-22s", "BugID")
	for _, tool := range t.Tools {
		s += fmt.Sprintf("%-16s", tool)
	}
	s += "\n"
	for _, row := range t.Rows {
		s += fmt.Sprintf("%-22s", row.Bug)
		for _, c := range row.Cells {
			s += fmt.Sprintf("%-16s", c.String())
		}
		s += "\n"
	}
	counts := t.DetectedCount()
	s += fmt.Sprintf("%-22s", "detected")
	for _, tool := range t.Tools {
		s += fmt.Sprintf("%-16s", fmt.Sprintf("%d/%d", counts[tool], len(t.Rows)))
	}
	s += "\n"
	return s
}

// Figure6Point is one iteration of a coverage campaign.
type Figure6Point struct {
	Iteration int
	Percent   float64
}

// RunFigure6 reproduces Fig. 6: the coverage-percentage growth over
// testing iterations for one kernel at each delay bound in ds. An
// iteration whose run or tree construction fails is quarantined: the
// series carries the last good percentage forward instead of aborting
// the whole campaign.
func RunFigure6(bugID string, iters int, ds []int, baseSeed int64) (map[int][]Figure6Point, error) {
	k, ok := goker.ByID(bugID)
	if !ok {
		return nil, fmt.Errorf("harness: unknown bug %q", bugID)
	}
	out := map[int][]Figure6Point{}
	for _, d := range ds {
		model := cover.NewModel(nil)
		var series []Figure6Point
		last := 0.0
		for it := 0; it < iters; it++ {
			pct, ok := figure6Iter(k, model, baseSeed+int64(it), d)
			if ok {
				last = pct
			}
			series = append(series, Figure6Point{Iteration: it + 1, Percent: last})
		}
		out[d] = series
	}
	return out, nil
}

// figure6Iter runs one coverage iteration under a panic quarantine.
func figure6Iter(k goker.Kernel, model *cover.Model, seed int64, d int) (pct float64, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	r := goker.Run(k, sim.Options{Seed: seed, Delays: d})
	tree, err := gtree.Build(r.Trace)
	if err != nil {
		return 0, false
	}
	st := model.AddRun(tree)
	return st.Percent, true
}
