// Package detect implements the four dynamic blocking-bug detectors the
// paper evaluates: GoAT itself plus the three baselines it is compared
// against (the runtime's built-in global-deadlock detector, the
// lock-order-based LockDL, and Uber's goleak end-of-main leak check).
//
// Every detector consumes the same execution Result from the virtual
// runtime but is only allowed to look at what its real counterpart could
// see — that asymmetry of observation power is exactly what Table IV and
// Figure 4 measure.
package detect

import (
	"fmt"

	"goat/internal/sim"
)

// Detection is one tool's verdict on one execution.
type Detection struct {
	Tool    string
	Found   bool   // the tool reported the bug
	Verdict string // paper-style tag: PDL-k, GDL, TO/GDL, DL, CRASH, HANG, OK
	Detail  string // human-readable amplification
}

// injectedCrash classifies a crash caused by the fault layer's injected
// panic: every detector recognizes the marker and reports the crash
// without counting it as a program bug, so robustness campaigns with
// panic faults enabled do not record false detections.
func injectedCrash(d Detection, r *sim.Result) Detection {
	d.Found = false
	d.Verdict = "CRASH(injected)"
	d.Detail = fmt.Sprint(r.PanicVal)
	return d
}

// Detector inspects one execution result.
type Detector interface {
	// Name returns the tool name used in tables.
	Name() string
	// Detect classifies one execution.
	Detect(r *sim.Result) Detection
}

// Goat is the full GoAT detector: it runs Procedure 1 (DeadlockCheck)
// over the goroutine tree's final-event states. It sees everything the
// trace records, so it detects partial deadlocks, global deadlocks,
// hangs and crashes. Detect is the post-hoc entry point — it replays the
// buffered ECT through the streaming core (GoatStream), which campaigns
// attach directly to the run to skip the trace buffering entirely.
type Goat struct{}

// Name implements Detector.
func (Goat) Name() string { return "goat" }

// Detect implements Detector.
func (g Goat) Detect(r *sim.Result) Detection {
	if r.Trace == nil {
		d := Detection{Tool: "goat"}
		switch r.Outcome {
		case sim.OutcomeCrash, sim.OutcomeTimeout:
			return g.NewStream().Finish(r) // outcome-only verdicts need no events
		}
		// Traceless settled run: fall back to the runtime's own
		// classification.
		if r.Outcome.Buggy() {
			return found(d, r.Outcome.String(), "virtual-runtime classification (tracing disabled)")
		}
		d.Verdict = "OK"
		return d
	}
	s := g.NewStream()
	r.Trace.Replay(s) // source propagates to the stream
	return s.Finish(r)
}

// Builtin emulates the Go runtime's embedded detector: it throws only when
// every goroutine is blocked while main is still alive (a global
// deadlock), and it surfaces crashes because panics kill the process
// visibly. Leaks past a terminating main are invisible to it.
type Builtin struct{}

// Name implements Detector.
func (Builtin) Name() string { return "builtin" }

// Detect implements Detector.
func (Builtin) Detect(r *sim.Result) Detection {
	d := Detection{Tool: "builtin"}
	switch r.Outcome {
	case sim.OutcomeGlobalDeadlock:
		return found(d, "GDL", "all goroutines are asleep - deadlock!")
	case sim.OutcomeCrash:
		if r.FaultCrashed() {
			return injectedCrash(d, r)
		}
		return found(d, "CRASH", fmt.Sprint(r.PanicVal))
	case sim.OutcomeTimeout:
		d.Verdict = "HANG" // livelock: the runtime queue never empties
		return d
	default:
		d.Verdict = "OK"
		return d
	}
}

// Goleak emulates Uber's goleak: after main returns it inspects the stacks
// of surviving goroutines and reports those parked on concurrency
// primitives. If main never returns, goleak itself hangs.
type Goleak struct{}

// Name implements Detector.
func (Goleak) Name() string { return "goleak" }

// Detect implements Detector.
func (Goleak) Detect(r *sim.Result) Detection {
	d := Detection{Tool: "goleak"}
	if r.Outcome == sim.OutcomeCrash {
		if r.FaultCrashed() {
			return injectedCrash(d, r)
		}
		return found(d, "CRASH", fmt.Sprint(r.PanicVal))
	}
	if !r.MainEnded {
		d.Verdict = "HANG" // the check at the end of main never runs
		return d
	}
	if n := len(r.Leaked); n > 0 {
		return found(d, fmt.Sprintf("PDL-%d", n),
			fmt.Sprintf("found %d unexpected goroutine(s) at main return", n))
	}
	d.Verdict = "OK"
	return d
}

func found(d Detection, verdict, detail string) Detection {
	d.Found = true
	d.Verdict = verdict
	d.Detail = detail
	return d
}
