package sim

import (
	"fmt"
	"strings"

	"goat/internal/fault"
	"goat/internal/trace"
)

// Outcome classifies a completed execution the way the paper's evaluation
// does: OK, global deadlock (GDL), leak / partial deadlock (PDL), timeout
// (TO / hang), or crash (panic).
type Outcome uint8

const (
	// OutcomeOK means main returned and every application goroutine ended.
	OutcomeOK Outcome = iota
	// OutcomeGlobalDeadlock means no goroutine could run while main was
	// still alive — the condition the built-in runtime detector throws on.
	OutcomeGlobalDeadlock
	// OutcomeLeak means main returned but at least one application
	// goroutine never reached its end state (partial deadlock).
	OutcomeLeak
	// OutcomeTimeout means the step budget was exhausted before the
	// program settled (livelock / hang).
	OutcomeTimeout
	// OutcomeCrash means a goroutine panicked.
	OutcomeCrash
	// OutcomeStopped means a streaming sink (an online detector) decided
	// its verdict mid-run and requested an early stop: the world was
	// halted before settling, so no settle-time classification exists.
	// The requesting detector's verdict is the run's authoritative
	// classification.
	OutcomeStopped
)

var outcomeNames = [...]string{"OK", "GDL", "PDL", "TO", "CRASH", "STOP"}

// String returns the paper-style outcome tag.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Buggy reports whether the outcome counts as a blocking-bug manifestation.
func (o Outcome) Buggy() bool { return o != OutcomeOK }

// Result is the complete observable record of one execution: classified
// outcome, the ECT, and final goroutine states.
type Result struct {
	Outcome    Outcome
	Trace      *trace.Trace // nil when Options.NoTrace
	Goroutines []Info       // all simulated goroutines, creation order
	Leaked     []Info       // application goroutines that never ended
	Seed       int64
	Steps      int
	Ops        int // total concurrency-usage handler invocations
	MainEnded  bool
	PanicVal   any
	PanicG     trace.GoID

	// EarlyStopped reports that the run was halted by a streaming sink's
	// early-stop request (Outcome == OutcomeStopped).
	EarlyStopped bool

	// OpRunnable records, per CU handler invocation (index i = op i+1),
	// how many other goroutines were runnable at that point
	// (Options.RecordOps).
	OpRunnable []int32

	// OpActor records, per CU handler invocation, the goroutine that
	// executed the op (Options.RecordOps).
	OpActor []trace.GoID

	// EventOps records, per emitted trace event (parallel to
	// Trace.Events), the op index of the emitting goroutine's most
	// recent CU handler invocation — 0 for events emitted before the
	// goroutine's first op (Options.RecordOps).
	EventOps []int64

	// Schedule is the recorded decision script (Options.Record).
	Schedule []int64
	// ReplayDiverged reports that a replayed script did not structurally
	// match the execution (Options.Replay).
	ReplayDiverged bool

	// Faults lists the injected faults that actually fired, in firing
	// order (Options.Faults). FaultsPending counts planted faults the
	// execution ended before reaching.
	Faults        []fault.Action
	FaultsPending int
}

// FaultCrashed reports that the execution crashed on an injected panic
// rather than a program bug.
func (r *Result) FaultCrashed() bool {
	return r.Outcome == OutcomeCrash && fault.IsInjected(r.PanicVal)
}

// String summarizes the result in one paragraph for reports.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "outcome=%s seed=%d steps=%d mainEnded=%v", r.Outcome, r.Seed, r.Steps, r.MainEnded)
	if len(r.Leaked) > 0 {
		fmt.Fprintf(&b, " leaked=%d [", len(r.Leaked))
		for i, g := range r.Leaked {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "g%d(%s)%s", g.ID, g.Name, stateTag(g))
		}
		b.WriteString("]")
	}
	if r.PanicVal != nil {
		fmt.Fprintf(&b, " panic(g%d)=%v", r.PanicG, r.PanicVal)
	}
	if len(r.Faults) > 0 {
		fmt.Fprintf(&b, " faults=%d", len(r.Faults))
	}
	return b.String()
}

func stateTag(g Info) string {
	if g.State == StateBlocked {
		return fmt.Sprintf("/blocked:%s", g.Reason)
	}
	return "/" + g.State.String()
}
