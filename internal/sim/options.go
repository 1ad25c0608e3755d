// Package sim implements the virtual runtime GoAT executes programs on: a
// deterministic cooperative scheduler for simulated goroutines.
//
// The paper instruments the real Go runtime (a patched 1.15.6 tracer) to
// observe concurrency events and perturbs the native scheduler with injected
// runtime.Gosched calls. This package is the substitute substrate: simulated
// goroutines are real goroutines, but exactly one runs at a time, handed the
// processor explicitly by the scheduler loop. Every scheduling decision draws
// from a seeded RNG, so a (program, seed, options) triple replays the exact
// same interleaving — which is what makes the schedule-space exploration and
// coverage experiments measurable.
//
// Scheduling model:
//   - A goroutine keeps the processor until it blocks, yields, ends, or is
//     preempted at a concurrency-usage (CU) point.
//   - At every CU point the injected handler may force a yield while the
//     delay budget D lasts (the paper's goat.handler → runtime.Gosched), and
//     independently may preempt with a small probability that models the
//     nondeterminism of the native Go scheduler (async preemption, OS
//     threads).
//   - When nothing is runnable, virtual time advances to the earliest timer;
//     if there are no timers either, the run is classified (deadlock, leak,
//     or normal termination).
package sim

import (
	"goat/internal/fault"
	"goat/internal/trace"
)

// Pick selects the runnable-queue discipline.
type Pick uint8

const (
	// PickRandom dispatches a uniformly random runnable goroutine (default).
	PickRandom Pick = iota
	// PickFIFO dispatches runnable goroutines in queue order, mimicking the
	// global run queue of the native scheduler. Used for ablations.
	PickFIFO
)

// Options configure one execution of the virtual runtime.
type Options struct {
	// Seed feeds every random decision (dispatch, select choice, yields).
	Seed int64

	// Sinks are streaming consumers of the execution's event stream: each
	// emitted event is stamped with its logical timestamp and delivered to
	// every sink, in order, exactly as it would be appended to the ECT.
	// Combined with NoTrace this runs the pipeline trace-free (online
	// detectors and coverage only, no event buffering); with tracing on,
	// the buffered ECT and the sink streams are byte-identical views of
	// the same execution. Sinks never draw scheduling decisions, so
	// Record/Replay scripts are unaffected.
	Sinks []trace.Sink

	// ECT, when non-nil, is used (after Reset) as the execution's trace
	// buffer instead of allocating a fresh one, so a campaign can reuse
	// event storage across executions (each engine worker keeps one
	// buffer, see internal/engine). Ignored when NoTrace is set.
	ECT *trace.Trace

	// Delays is the paper's bound D: the maximum number of forced yields
	// injected at CU points during the execution. 0 disables injection.
	Delays int

	// YieldProb is the probability that the CU handler fires a forced yield
	// while the Delays budget lasts. Zero selects the default (0.2).
	YieldProb float64

	// PreemptProb is the probability of a natural preemption at a CU point,
	// modeling native-scheduler noise. Zero selects the default (0.02).
	// Negative disables preemption entirely.
	PreemptProb float64

	// MaxSteps bounds scheduler dispatches before the run is declared hung
	// (the analogue of the paper's 30-second watchdog). Zero selects the
	// default (200000).
	MaxSteps int

	// DrainSteps bounds dispatches spent letting surviving goroutines finish
	// after the main goroutine ends. Zero selects the default (20000).
	DrainSteps int

	// Pick selects the run-queue discipline.
	Pick Pick

	// NoTrace disables ECT capture (for pure detection-throughput runs).
	NoTrace bool

	// Record captures the execution's decision script into
	// Result.Schedule — a portable artifact that replays the exact
	// interleaving independent of PRNG internals.
	Record bool

	// Replay feeds a previously recorded decision script instead of the
	// PRNG. A script from a structurally different program sets
	// Result.ReplayDiverged.
	Replay []int64

	// Faults configures the deterministic fault-injection layer: the plan
	// derived from (Seed, Faults) stalls goroutines, skews timers, cancels
	// contexts, slows channel operations and injects panics at CU points,
	// each recorded as an ECT event. The zero value disables injection.
	// Fault decisions draw from the plan's own PRNG streams, never from
	// the schedule decider, so Record/Replay scripts stay valid.
	Faults fault.Options

	// RecordOps captures the op census the DPOR explorer reasons over.
	// Per CU handler invocation it records how many *other* goroutines
	// were runnable (Result.OpRunnable) — a yield at an op where nothing
	// else was runnable redispatches the same goroutine and cannot change
	// the schedule — and the acting goroutine (Result.OpActor). Per
	// emitted trace event it records the global op index of the emitting
	// goroutine's most recent CU handler invocation (Result.EventOps,
	// parallel to Trace.Events): the op a forced yield must target to
	// preempt the goroutine *before* that operation, which is exactly the
	// DPOR backtrack-point mapping. EventOps is only filled when the run
	// buffers a trace. Recording never draws scheduling decisions.
	RecordOps bool

	// YieldAt switches the handler to *systematic* mode: a forced yield
	// fires exactly at the listed global op indices (1-based count of
	// handler invocations) and probabilistic yields/preemptions are
	// disabled. Combined with PickFIFO this makes the entire schedule a
	// deterministic function of the yield placement — the substrate of
	// the systematic explorer and the schedule minimizer.
	YieldAt []int64
}

const (
	defaultYieldProb   = 0.2
	defaultPreemptProb = 0.02
	defaultMaxSteps    = 200000
	defaultDrainSteps  = 20000
)

func (o Options) yieldProb() float64 {
	if o.YieldProb == 0 {
		return defaultYieldProb
	}
	return o.YieldProb
}

func (o Options) preemptProb() float64 {
	if o.PreemptProb == 0 {
		return defaultPreemptProb
	}
	if o.PreemptProb < 0 {
		return 0
	}
	return o.PreemptProb
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return defaultMaxSteps
	}
	return o.MaxSteps
}

func (o Options) drainSteps() int {
	if o.DrainSteps <= 0 {
		return defaultDrainSteps
	}
	return o.DrainSteps
}
