// Streaming detector cores. Each detector that inspects the ECT has an
// online form: a trace.Sink that consumes events as the virtual runtime
// emits them and produces its Detection the moment the run ends, without
// the run ever buffering a trace. The post-hoc Detect entry points are
// thin wrappers that replay a buffered trace through the same core, so
// the two paths cannot drift: a stream observed live and a stream
// replayed from the ECT yield identical verdicts.
package detect

import (
	"fmt"

	"goat/internal/sim"
	"goat/internal/telemetry"
	"goat/internal/trace"
)

// Stream is one online detector instance, good for a single execution:
// attach it to the run via sim.Options.Sinks, then call Finish with the
// run's Result to obtain the Detection.
type Stream interface {
	trace.Sink
	// Finish combines the streamed state with the runtime's classified
	// Result (outcome, panic value, fault record) into the verdict.
	Finish(r *sim.Result) Detection
}

// Streaming marks detectors that provide an online core.
type Streaming interface {
	Detector
	// NewStream returns a fresh single-execution online instance.
	NewStream() Stream
}

// EarlyStopper is a stream's former early-stop switch. Nothing in this
// module implements or calls it: the benchmark's timing wrappers
// (bench/wrap.go) still name it, and the next change to the benchmark
// deletes both.
type EarlyStopper interface {
	EnableEarlyStop()
}

// Resettable marks streams a campaign may recycle across executions:
// Reset returns the stream to its initial state, so a hot campaign loop
// runs its detector without any per-execution allocation.
type Resettable interface {
	Stream
	Reset()
}

// ---------------------------------------------------------------------
// GoAT: online goroutine-tree state.

// goatG is the per-goroutine state the online blocked-goroutine detector
// keeps: whether the goroutine is application-level and its latest event
// type — exactly the inputs of Procedure 1 (final events over the
// application goroutine tree).
type goatG struct {
	app  bool
	last trace.Type
}

// GoatStream is the online form of the GoAT detector: it maintains the
// goroutine tree's final-event states incrementally instead of building
// the tree from a buffered trace after the fact. The goroutine states are
// held by value so tracking a spawn costs no allocation.
type GoatStream struct {
	gs     map[trace.GoID]goatG
	events int
	err    string // malformed stream, latched (mirrors gtree.Build)

	// Producer guarantees (trace.SourceAware). Without CapCreateObserved
	// a goroutine may introduce itself by its own GoStart (window
	// traces); without CapCompleteRun "main never ended" is the normal
	// end-of-window state, so the verdict becomes a blocked-at-window-end
	// census instead of Procedure 1's complete-run classification.
	windowed   bool
	incomplete bool
}

// SetSource implements trace.SourceAware. Streams that never learn a
// source keep the virtual runtime's strict contract.
func (d *GoatStream) SetSource(src trace.SourceInfo) {
	d.windowed = !src.Has(trace.CapCreateObserved)
	d.incomplete = !src.Has(trace.CapCompleteRun)
}

// NewStream implements Streaming.
func (Goat) NewStream() Stream {
	return &GoatStream{gs: map[trace.GoID]goatG{1: {app: true}}}
}

// Reset implements Resettable. Source leniency is dropped back to the
// strict virtual-runtime contract: a replay entry point re-announces its
// source, a live run never has one.
func (d *GoatStream) Reset() {
	clear(d.gs)
	d.gs[1] = goatG{app: true}
	d.events = 0
	d.err = ""
	d.windowed = false
	d.incomplete = false
}

// Event implements trace.Sink.
func (d *GoatStream) Event(e trace.Event) {
	if d.err != "" {
		return
	}
	d.events++
	g, ok := d.gs[e.G]
	if !ok {
		if d.windowed && e.Type == trace.EvGoStart {
			// Orphan adoption, mirroring gtree.Build: a goroutine that
			// pre-existed the window introduces itself (Aux=1 marks
			// runtime-internal provenance).
			g = goatG{app: e.Aux != 1}
		} else {
			d.err = fmt.Sprintf("gtree: event by unknown goroutine g%d at ts %d", e.G, e.Ts)
			return
		}
	}
	g.last = e.Type
	d.gs[e.G] = g
	if e.Type == trace.EvGoCreate {
		d.gs[e.Peer] = goatG{app: g.app && e.Aux != 1}
	}
}

// EventBatch implements trace.BatchSink: one virtual dispatch per
// emission block instead of per event. The block is not retained.
func (d *GoatStream) EventBatch(evs []trace.Event) {
	for i := range evs {
		d.Event(evs[i])
	}
}

// Close implements trace.Sink.
func (d *GoatStream) Close() {}

// Finish implements Stream. The verdict logic and its wording match the
// post-hoc Goat.Detect exactly.
func (d *GoatStream) Finish(r *sim.Result) Detection {
	det := d.finish(r)
	flushStreamTelemetry(d.events, det)
	return det
}

func (d *GoatStream) finish(r *sim.Result) Detection {
	det := Detection{Tool: "goat"}
	if r.Outcome == sim.OutcomeCrash {
		if r.FaultCrashed() {
			return injectedCrash(det, r)
		}
		return found(det, "CRASH", fmt.Sprintf("panic in g%d: %v", r.PanicG, r.PanicVal))
	}
	if r.Outcome == sim.OutcomeTimeout {
		detail := "no progress before the watchdog budget expired"
		if len(r.Faults) > 0 {
			detail += fmt.Sprintf(" (%d fault(s) injected)", len(r.Faults))
		}
		return found(det, "TO/GDL", detail)
	}
	if d.err != "" {
		return found(det, "ERROR", d.err)
	}
	if d.events == 0 {
		return found(det, "ERROR", trace.ErrEmpty.Error())
	}
	if d.incomplete {
		// Window trace: there is no settle point, so Procedure 1's
		// complete-run classification does not apply. The verdict is a
		// census of application goroutines parked when the window closed
		// — candidates, which the stranded-goroutine analysis
		// (internal/ingest) refines with provenance and activity.
		blocked := 0
		for _, g := range d.gs {
			if g.app && g.last == trace.EvGoBlock {
				blocked++
			}
		}
		if blocked > 0 {
			return found(det, fmt.Sprintf("PDL-%d", blocked),
				fmt.Sprintf("%d goroutine(s) blocked at the end of the trace window", blocked))
		}
		det.Verdict = "OK"
		return det
	}
	if d.gs[1].last != trace.EvGoEnd {
		return found(det, "GDL", "main goroutine never reached its end state")
	}
	leaked := 0
	for id, g := range d.gs {
		if id != 1 && g.app && g.last != trace.EvGoEnd {
			leaked++
		}
	}
	if leaked > 0 {
		return found(det, fmt.Sprintf("PDL-%d", leaked), fmt.Sprintf("%d goroutine(s) leaked", leaked))
	}
	det.Verdict = "OK"
	return det
}

// ---------------------------------------------------------------------
// LockDL: online lock-order analysis.

// LockDLStream is the online form of the lock-order detector: it folds
// every mutex event into the per-goroutine locksets and the lock-order
// graph as it happens. Double-lock warnings are latched at the offending
// event (matching where the post-hoc scan returns); the cycle check runs
// at Finish.
type LockDLStream struct {
	graph  lockGraph
	held   map[trace.GoID]map[trace.ResID]bool
	warn   string
	events int // events consumed this run

	// disabled is latched by SetSource when the producer lacks
	// CapOpEvents: without uncontended acquisitions and unlocks the
	// locksets are fiction, so the lock-order analysis switches itself
	// off rather than warn from unsound state.
	disabled bool
}

// SetSource implements trace.SourceAware: the analysis needs the full
// operation census (CapOpEvents) to be sound.
func (d *LockDLStream) SetSource(src trace.SourceInfo) {
	d.disabled = !src.Has(trace.CapOpEvents)
}

// NewStream implements Streaming.
func (LockDL) NewStream() Stream {
	return &LockDLStream{held: map[trace.GoID]map[trace.ResID]bool{}}
}

// Reset implements Resettable. The goroutine lockset map is retained
// (inner sets are rebuilt as goroutines lock); the lock-order graph is
// rebuilt from scratch. Source-based disablement is dropped: the next
// replay re-announces its source.
func (d *LockDLStream) Reset() {
	d.graph = lockGraph{}
	clear(d.held)
	d.warn = ""
	d.events = 0
	d.disabled = false
}

// Event implements trace.Sink. Blocked acquisitions record lock-order
// edges at the attempt, not only at the (possibly never-happening)
// acquisition — this is how LockDL warns before the deadlock bites.
func (d *LockDLStream) Event(e trace.Event) {
	d.events++
	if d.warn != "" {
		return // first warning wins, like the post-hoc scan's early return
	}
	if d.disabled || e.Res == 0 {
		// No op census, or an operation whose resource identity the
		// producer could not synthesize — Res 0 would alias every such
		// operation into one phantom lock.
		return
	}
	switch e.Type {
	case trace.EvGoBlock:
		reason := e.BlockReason()
		if reason != trace.BlockMutex && reason != trace.BlockRMutex {
			return
		}
		for h := range d.held[e.G] {
			if h == e.Res {
				d.warn = fmt.Sprintf("double lock of r%d in g%d at %s:%d", e.Res, e.G, e.File, e.Line)
				return
			}
			d.graph.add(h, e.Res)
		}
	case trace.EvMutexLock, trace.EvRWLock, trace.EvRLock:
		hs := d.held[e.G]
		if hs == nil {
			hs = map[trace.ResID]bool{}
			d.held[e.G] = hs
		}
		if !e.Blocked { // uncontended acquire still orders after held locks
			for h := range hs {
				if h == e.Res {
					d.warn = fmt.Sprintf("double lock of r%d in g%d at %s:%d", e.Res, e.G, e.File, e.Line)
					return
				}
				d.graph.add(h, e.Res)
			}
		}
		hs[e.Res] = true
	case trace.EvMutexUnlock, trace.EvRWUnlock, trace.EvRUnlock:
		if d.held[e.G][e.Res] {
			delete(d.held[e.G], e.Res)
			return
		}
		// Cross-goroutine unlock: release whoever holds it.
		for _, hs := range d.held {
			if hs[e.Res] {
				delete(hs, e.Res)
				break
			}
		}
	}
}

// EventBatch implements trace.BatchSink.
func (d *LockDLStream) EventBatch(evs []trace.Event) {
	for i := range evs {
		d.Event(evs[i])
	}
}

// Close implements trace.Sink.
func (d *LockDLStream) Close() {}

// Finish implements Stream, with the post-hoc Detect's exact ordering:
// crash, then the lock-discipline warning, then the application timeout.
func (d *LockDLStream) Finish(r *sim.Result) Detection {
	det := d.finish(r)
	flushStreamTelemetry(d.events, det)
	return det
}

func (d *LockDLStream) finish(r *sim.Result) Detection {
	det := Detection{Tool: "lockdl"}
	if r.Outcome == sim.OutcomeCrash {
		if r.FaultCrashed() {
			return injectedCrash(det, r)
		}
		return found(det, "CRASH", fmt.Sprint(r.PanicVal))
	}
	if d.disabled {
		det.Verdict = "N/A"
		det.Detail = "producer records only blocking operations; lock-order analysis disabled"
		return det
	}
	warn := d.warn
	if warn == "" {
		warn = d.graph.cycle()
	}
	if warn != "" {
		return found(det, "DL", warn)
	}
	switch r.Outcome {
	case sim.OutcomeGlobalDeadlock, sim.OutcomeTimeout:
		return found(det, "TO/GDL", "application timeout expired")
	}
	det.Verdict = "OK"
	return det
}

// flushStreamTelemetry batches one finished stream's observations into
// the registry: events consumed and whether the run detected.
func flushStreamTelemetry(events int, det Detection) {
	if !telemetry.Enabled() {
		return
	}
	telemetry.DetectEvents.Add(int64(events))
	if det.Found {
		telemetry.DetectDetections.Inc()
	}
}

// ---------------------------------------------------------------------
// Result-only detectors: trivially streaming.

// resultStream adapts a detector that only inspects the classified
// Result (builtin, goleak) to the Stream interface: the event stream is
// ignored, Finish delegates to Detect. Such detectors never need the
// trace, so their campaigns already run trace-free.
type resultStream struct{ d Detector }

func (resultStream) Event(trace.Event)                {}
func (resultStream) EventBatch([]trace.Event)         {}
func (resultStream) Close()                           {}
func (resultStream) Reset()                           {}
func (s resultStream) Finish(r *sim.Result) Detection { return s.d.Detect(r) }

// NewStream implements Streaming.
func (b Builtin) NewStream() Stream { return resultStream{d: b} }

// NewStream implements Streaming.
func (g Goleak) NewStream() Stream { return resultStream{d: g} }
