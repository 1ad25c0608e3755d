// Package engine is the unified campaign pipeline: one run-until-decided
// loop shared by the evaluation harness (Table IV cells), the systematic
// explorer, the differential kernel fuzzer, and the goat CLI.
//
// A campaign executes a program repeatedly under planned scheduling
// options, classifies every run with a detector, optionally folds each
// run into a coverage model, and stops on the first detection, a caller
// decision, or the budget. The engine owns the wiring, and it has one: a
// streaming detector and the coverage model watch every run as event
// sinks. A run buffers its ECT only when the caller asks for it
// (Config.NeedTrace) or the detector has no streaming form and must
// judge the ECT after the run; otherwise it runs trace-free.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/sim"
	"goat/internal/telemetry"
	"goat/internal/trace"
)

// Feedback is the complete record of one campaign run, handed to OnRun
// and to Plan (as the previous run's outcome).
type Feedback struct {
	// Index is the 0-based run index.
	Index int
	// Options are the scheduling options the run executed under. The
	// engine's internal wiring (ECT buffer, sink chain) is scrubbed from
	// the copy: those fields alias per-run machinery the next run reuses.
	Options sim.Options
	// Result is the run's classified execution result. Result.Trace is
	// nil unless the campaign buffers its runs, and then only valid until
	// OnRun returns: the next run reuses the buffer (except after the
	// detecting run, which keeps its own).
	Result *sim.Result
	// Detection is the detector's verdict (nil without a Detector).
	Detection *detect.Detection
	// Stats is the post-run coverage statistics (nil without a Coverage
	// model).
	Stats *cover.RunStats
}

// Config describes one campaign.
type Config struct {
	// Prog is the program under test (required).
	Prog func(*sim.G)
	// Plan returns the scheduling options of run i; prev is the previous
	// run's feedback (nil for run 0, and always nil in parallel mode —
	// parallel plans must depend on the index only). The engine overrides
	// the trace and sink fields. Required.
	Plan func(i int, prev *Feedback) sim.Options
	// Runs is the execution budget (required, > 0).
	Runs int

	// Detector classifies each run (optional). A detector implementing
	// detect.Streaming watches the run as an event sink; any other
	// detector judges the run after it ends, on its buffered ECT.
	Detector detect.Detector
	// Coverage, when set, accumulates every run into the model through a
	// streamed cover.RunSink.
	Coverage *cover.Model

	// NeedTrace makes every run buffer its ECT in Result.Trace, for
	// callers that read it (reports, trace artifacts, schedule analyses).
	NeedTrace bool
	// Sinks are extra event sinks attached to every run.
	Sinks []trace.Sink

	// StopOnFound ends the campaign at the first detection.
	StopOnFound bool
	// Parallel runs up to this many executions concurrently (0/1 =
	// sequential). Only campaigns without OnRun and Coverage parallelize —
	// otherwise the engine silently runs sequentially. The first detection
	// is by minimal run index, so the reported cell is identical to the
	// sequential campaign's.
	Parallel int
	// OnRun observes every completed run in order. Returning stop ends
	// the campaign successfully; returning an error aborts it.
	OnRun func(fb *Feedback) (stop bool, err error)
}

// Report is the campaign summary.
type Report struct {
	// Runs is how many executions were performed. In parallel mode this
	// can exceed Found.Index+1: runs past the detection that were already
	// in flight still count.
	Runs int
	// Found is the first (minimal-index) detecting run, nil if none.
	Found *Feedback
}

// Run executes the campaign. The context cancels it between executions:
// a single sim run is uninterruptible (it is bounded by MaxSteps, not by
// wall clock), so cancellation takes effect at the next run boundary and
// Run returns the partial Report alongside ctx.Err(). A nil ctx behaves
// like context.Background().
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Prog == nil || cfg.Plan == nil {
		return nil, fmt.Errorf("engine: Prog and Plan are required")
	}
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("engine: Runs must be positive, got %d", cfg.Runs)
	}
	if cfg.Parallel > 1 && cfg.OnRun == nil && cfg.Coverage == nil {
		return runParallel(ctx, &cfg)
	}
	rep := &Report{}
	var prev *Feedback
	var sc scratch
	for i := 0; i < cfg.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		fb := runOne(&cfg, i, prev, &sc)
		rep.Runs = i + 1
		found := fb.Detection != nil && fb.Detection.Found
		if found && rep.Found == nil {
			rep.Found = fb
		}
		var stop bool
		if cfg.OnRun != nil {
			var err error
			if stop, err = cfg.OnRun(fb); err != nil {
				return rep, err
			}
		}
		if fb == rep.Found {
			sc.ect = nil // the caller may still read the detecting run's trace
		} else {
			fb.Result.Trace = nil // the next run reuses the buffer
		}
		if stop || (cfg.StopOnFound && found) {
			return rep, nil
		}
		prev = fb
	}
	return rep, nil
}

// buffers reports whether the campaign's runs buffer their ECT: the
// caller asked for it, or the detector has no streaming form and judges
// the ECT after each run.
func (c *Config) buffers() bool {
	if c.NeedTrace {
		return true
	}
	_, streams := c.Detector.(detect.Streaming)
	return c.Detector != nil && !streams
}

// scratch is the per-run machinery one sequential loop or one parallel
// worker reuses across its runs: the sink-chain backing slice, the ECT
// buffer of a buffering campaign and, when the detector's stream is
// detect.Resettable, the stream itself. Only the ECT buffer escapes a
// run, in the run's Result; the Feedback keeps a scrubbed Options copy.
type scratch struct {
	sinks  []trace.Sink
	stream detect.Resettable
	tsink  *telemetry.Sink // per-worker event-category tally (nil when telemetry is off)
	ect    *trace.Trace    // allocated on first use; dropped when a detecting run keeps it
}

// runOne executes one campaign run: attach the analyses as sinks, run
// the program, finish the analyses.
func runOne(cfg *Config, i int, prev *Feedback, sc *scratch) *Feedback {
	opts := cfg.Plan(i, prev)

	var stream detect.Stream
	if sc.stream != nil {
		sc.stream.Reset()
		stream = sc.stream
	} else if s, ok := cfg.Detector.(detect.Streaming); ok {
		stream = s.NewStream()
		if r, ok := stream.(detect.Resettable); ok {
			sc.stream = r
		}
	}
	var covSink *cover.RunSink
	if cfg.Coverage != nil {
		covSink = cfg.Coverage.StreamRun()
	}

	opts.NoTrace = !cfg.buffers()
	if !opts.NoTrace {
		if sc.ect == nil {
			sc.ect = trace.New(1024)
		}
		opts.ECT = sc.ect
	}
	if sc.tsink == nil && telemetry.Enabled() {
		sc.tsink = telemetry.NewSink()
	}
	if stream != nil || covSink != nil || len(cfg.Sinks) > 0 || sc.tsink != nil {
		sinks := append(sc.sinks[:0], cfg.Sinks...)
		if stream != nil {
			sinks = append(sinks, stream)
		}
		if covSink != nil {
			sinks = append(sinks, covSink)
		}
		if sc.tsink != nil {
			sinks = append(sinks, sc.tsink)
		}
		sc.sinks = sinks
		opts.Sinks = sinks
	}

	var t0 time.Time
	if telemetry.Enabled() {
		t0 = time.Now()
	}
	r := sim.Run(opts, cfg.Prog)
	if !t0.IsZero() {
		telemetry.EngineRuns.Inc()
		telemetry.EngineRunWall.Observe(time.Since(t0).Nanoseconds())
	}
	fb := &Feedback{Index: i, Options: opts, Result: r}
	fb.Options.Sinks = nil // engine wiring: the scratch is reused next run
	fb.Options.ECT = nil   // engine wiring: the next run reuses the buffer

	if covSink != nil {
		st := covSink.Finish()
		fb.Stats = &st
	}
	if stream != nil {
		d := stream.Finish(r)
		fb.Detection = &d
	} else if cfg.Detector != nil {
		d := cfg.Detector.Detect(r)
		fb.Detection = &d
	}
	return fb
}

// runParallel is the concurrent campaign: workers claim run indices in
// order, and the first detection by minimal index wins, so the reported
// cell matches the sequential campaign's. With StopOnFound, workers stop
// claiming indices past the best detection but runs already in flight
// complete (one of them may detect at a lower index).
func runParallel(ctx context.Context, cfg *Config) (*Report, error) {
	workers := cfg.Parallel
	if workers > cfg.Runs {
		workers = cfg.Runs
	}
	var (
		mu       sync.Mutex
		next     int
		ran      int
		found    *Feedback
		firstErr error
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= cfg.Runs {
			return -1
		}
		if err := ctx.Err(); err != nil {
			firstErr = err
			return -1
		}
		if cfg.StopOnFound && found != nil && next > found.Index {
			return -1
		}
		i := next
		next++
		ran++
		return i
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// A panicking kernel must not take down the whole
				// campaign's process; sequential callers that want the
				// panic re-raised run with Parallel <= 1.
				if r := recover(); r != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("engine: parallel run panicked: %v", r)
					}
					mu.Unlock()
				}
			}()
			var sc scratch
			for {
				i := claim()
				if i < 0 {
					return
				}
				fb := runOne(cfg, i, nil, &sc)
				mu.Lock()
				if fb.Detection != nil && fb.Detection.Found &&
					(found == nil || fb.Index < found.Index) {
					found = fb
					sc.ect = nil // the detecting run keeps this worker's buffer
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep := &Report{Runs: ran, Found: found}
	if firstErr != nil {
		return rep, firstErr
	}
	return rep, nil
}
