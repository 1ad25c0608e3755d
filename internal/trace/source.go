package trace

// Event producers. The ECT vocabulary is source-agnostic: an Event means
// the same thing whether the virtual runtime emitted it or a native
// runtime/trace capture was converted into it. What differs between
// producers is the *guarantees* they can make about the stream — whether
// goroutine IDs are dense, whether every concurrency operation is
// visible or only the blocking ones, whether resource identities are
// exact or synthesized by correlation. SourceInfo carries those
// guarantees as a capability bitset so every consumer (detectors, the
// HB engine, the goroutine tree, coverage) can degrade gracefully
// instead of assuming the virtual runtime's full fidelity.

// Caps is a bitset of guarantees an event producer makes about the
// streams it emits. A consumer must not rely on a property whose bit is
// absent.
type Caps uint32

const (
	// CapCreateObserved: every goroutine other than the main goroutine
	// has its EvGoCreate observed before its first own event, so the
	// goroutine tree is complete. Absent, goroutines may enter the
	// stream mid-flight, introduced only by a (possibly synthesized)
	// EvGoStart.
	CapCreateObserved Caps = 1 << iota

	// CapDenseGoIDs: goroutine IDs are assigned densely in creation
	// order starting at 1 (main). Absent, IDs are opaque — stable
	// within one trace but with no cross-trace or ordering meaning.
	CapDenseGoIDs

	// CapExactResIDs: resource IDs identify concrete runtime objects
	// (channels, mutexes, ...) in creation order. Absent, Res values
	// are heuristic correlation buckets — two events with the same Res
	// plausibly touched the same object, two with different Res may
	// still have touched the same one — or 0 when unknowable.
	CapExactResIDs

	// CapOpEvents: every concurrency-primitive operation appears as its
	// own event, including the ones that completed without parking
	// (uncontended sends, immediate lock acquisitions, Unlock, Add).
	// Absent, only operations that *blocked* are visible, so op-census
	// analyses (lock-order graphs, predictive mining, FIFO matching)
	// are unsound and must disable themselves.
	CapOpEvents

	// CapCompleteRun: the trace spans the whole execution, from the
	// first event of main to the settle point the outcome was
	// classified at. Absent, the trace is a window cut from a longer
	// execution: goroutines may pre-exist it, main outliving it is
	// normal, and "blocked at the end" means blocked at the *window*
	// end, not permanently.
	CapCompleteRun

	// CapSourceLoc: File/Line name the source statement (concurrency
	// usage) that performed the operation.
	CapSourceLoc

	// CapFaultEvents: the producer may inject faults and record them as
	// EvFault* events (the internal/fault layer).
	CapFaultEvents

	// CapOpAttribution: the producer can attribute events to scheduler
	// decisions (sim.Result's OpRunnable/OpActor/EventOps side tables).
	// Systematic exploration and DPOR require a *controllable*
	// scheduler, so this capability is inherently virtual-runtime-only.
	CapOpAttribution
)

// Has reports whether every capability in c is present.
func (s SourceInfo) Has(c Caps) bool { return s.Caps&c == c }

// SourceInfo describes one producer of ECT events.
type SourceInfo struct {
	Name string // producer name ("sim", "native go1.23", ...)
	Caps Caps
}

// IsZero reports whether the SourceInfo is unset.
func (s SourceInfo) IsZero() bool { return s.Name == "" && s.Caps == 0 }

// simCaps is the full guarantee set of the virtual runtime.
const simCaps = CapCreateObserved | CapDenseGoIDs | CapExactResIDs |
	CapOpEvents | CapCompleteRun | CapSourceLoc | CapFaultEvents | CapOpAttribution

// SimSource describes the virtual runtime (internal/sim), the producer
// with every guarantee. Traces with a zero Source are assumed to come
// from it: every trace predating source stamping did.
var SimSource = SourceInfo{Name: "sim", Caps: simCaps}

// SourceInfo returns the trace's producer description, defaulting to
// SimSource when the trace was never stamped.
func (t *Trace) SourceInfo() SourceInfo {
	if t.Source.IsZero() {
		return SimSource
	}
	return t.Source
}

// EventSource is the producer contract: one execution's event stream
// together with the guarantees its producer makes. The virtual runtime
// satisfies it live (sim.Scheduler stamps every trace it fills), a
// buffered *Trace satisfies it by replay, and the native ingester
// (internal/ingest) satisfies it for converted runtime/trace captures.
type EventSource interface {
	// SourceInfo describes the producer and its guarantees.
	SourceInfo() SourceInfo
	// Replay delivers the events, in order, to the sink. It does not
	// call Close — the caller owns the sink's lifecycle.
	Replay(s Sink) error
}

// Replay implements EventSource: a buffered trace replays itself.
// Sinks implementing SourceAware learn the producer first, so replay
// through a streaming consumer behaves exactly like live observation
// under the same source.
func (t *Trace) Replay(s Sink) error {
	if sa, ok := s.(SourceAware); ok {
		sa.SetSource(t.SourceInfo())
	}
	for _, e := range t.Events {
		s.Event(e)
	}
	return nil
}

// SourceAware marks sinks that adapt their behavior to the producer's
// declared guarantees (e.g. a detector that disables an analysis whose
// inputs the producer cannot supply). SetSource is called once, before
// the first event. Sinks that never learn a source must assume
// SimSource — the historical behavior.
type SourceAware interface {
	SetSource(SourceInfo)
}

// SetSource implements SourceAware for the fan-out: every member that
// cares learns the producer.
func (m MultiSink) SetSource(src SourceInfo) {
	for _, s := range m {
		if sa, ok := s.(SourceAware); ok {
			sa.SetSource(src)
		}
	}
}
