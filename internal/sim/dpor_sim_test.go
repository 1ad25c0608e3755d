package sim

import (
	"fmt"
	"testing"

	"goat/internal/trace"
)

// systematicOpts returns deterministic systematic-mode options: FIFO
// dispatch, no probabilistic yields or preempts, forced yields/wakes only.
func systematicOpts(yields []int64, wakes map[int64]trace.GoID) Options {
	if yields == nil && wakes == nil {
		yields = []int64{}
	}
	return Options{Pick: PickFIFO, PreemptProb: -1, YieldAt: yields, WakeAt: wakes}
}

// orderProg spawns three children that each record their name; under FIFO
// with no yields they run in spawn order after main's ops.
func orderProg(order *[]string) func(*G) {
	return func(g *G) {
		for _, name := range []string{"A", "B", "C"} {
			g.Go(name, func(c *G) {
				c.Handler("dpor.go", 1)
				*order = append(*order, c.Name())
				c.Handler("dpor.go", 2)
			})
		}
		g.Handler("dpor.go", 3)
		g.Handler("dpor.go", 4)
	}
}

func runOrder(t *testing.T, opts Options) ([]string, *Result) {
	t.Helper()
	var order []string
	r := Run(opts, orderProg(&order))
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", r.Outcome, r)
	}
	return order, r
}

func TestRecordOpsCapturesActorAndRunnable(t *testing.T) {
	opts := systematicOpts(nil, nil)
	opts.RecordOps = true
	_, r := runOrder(t, opts)

	if len(r.OpActor) != r.Ops || len(r.OpRunnable) != r.Ops {
		t.Fatalf("recorded %d actors / %d runnable, want %d each",
			len(r.OpActor), len(r.OpRunnable), r.Ops)
	}
	// Main (g1) executes the first op with all three children runnable.
	if r.OpActor[0] != 1 || r.OpRunnable[0] != 3 {
		t.Fatalf("op 1: actor g%d with %d runnable peers, want g1 with 3", r.OpActor[0], r.OpRunnable[0])
	}
}

func TestRecordOpsParallelToTrace(t *testing.T) {
	opts := systematicOpts(nil, nil)
	opts.RecordOps = true
	_, r := runOrder(t, opts)

	if len(r.EventOps) != len(r.Trace.Events) {
		t.Fatalf("EventOps len %d, trace len %d", len(r.EventOps), len(r.Trace.Events))
	}
	seen := map[trace.GoID]bool{}
	for i, e := range r.Trace.Events {
		op := r.EventOps[i]
		if op < 0 || op > int64(r.Ops) {
			t.Fatalf("event %d: op attribution %d out of range [0,%d]", i, op, r.Ops)
		}
		if !seen[e.G] && op != 0 {
			// A goroutine's first event (GoStart / its creation context)
			// precedes any of its CU handler invocations.
			if e.Type == trace.EvGoStart {
				t.Fatalf("event %d (%v of g%d): attributed to op %d before first op", i, e.Type, e.G, op)
			}
		}
		if e.Type == trace.EvGoSched || e.Type == trace.EvGoPreempt {
			if op == 0 {
				t.Fatalf("event %d: forced yield with no op attribution", i)
			}
		}
		seen[e.G] = true
	}
}

func TestWakeAtDeterministic(t *testing.T) {
	wakes := map[int64]trace.GoID{1: 4}
	o1, r1 := runOrder(t, systematicOpts(nil, wakes))
	o2, r2 := runOrder(t, systematicOpts(nil, wakes))
	if fmt.Sprint(o1) != fmt.Sprint(o2) {
		t.Fatalf("wake runs diverged: %v vs %v", o1, o2)
	}
	if len(r1.Trace.Events) != len(r2.Trace.Events) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(r1.Trace.Events), len(r2.Trace.Events))
	}
	for i := range r1.Trace.Events {
		if r1.Trace.Events[i] != r2.Trace.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, r1.Trace.Events[i], r2.Trace.Events[i])
		}
	}
}

// TestWakeAtBeyondSingleYield proves the targeted wake enlarges the
// reachable schedule space: waking g4 ("C") at main's first op produces an
// order that no single plain-yield placement can realize, because a plain
// yield only rotates the yielder to the back of the FIFO queue.
func TestWakeAtBeyondSingleYield(t *testing.T) {
	wakeOrder, r := runOrder(t, systematicOpts(nil, map[int64]trace.GoID{1: 4}))
	want := fmt.Sprint([]string{"C", "A", "B"})
	if fmt.Sprint(wakeOrder) != want {
		t.Fatalf("wake order = %v, want C A B", wakeOrder)
	}
	for op := int64(1); op <= int64(r.Ops); op++ {
		order, _ := runOrder(t, systematicOpts([]int64{op}, nil))
		if fmt.Sprint(order) == want {
			t.Fatalf("single yield at op %d already realizes %v — wake adds nothing", op, order)
		}
	}
}

func TestWakeAtAbsentTargetDegradesToYield(t *testing.T) {
	wakeOrder, wr := runOrder(t, systematicOpts(nil, map[int64]trace.GoID{2: 99}))
	yieldOrder, yr := runOrder(t, systematicOpts([]int64{2}, nil))
	if fmt.Sprint(wakeOrder) != fmt.Sprint(yieldOrder) {
		t.Fatalf("degraded wake order %v != plain yield order %v", wakeOrder, yieldOrder)
	}
	if len(wr.Trace.Events) != len(yr.Trace.Events) {
		t.Fatalf("trace lengths differ: %d vs %d", len(wr.Trace.Events), len(yr.Trace.Events))
	}
	for i := range wr.Trace.Events {
		if wr.Trace.Events[i] != yr.Trace.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, wr.Trace.Events[i], yr.Trace.Events[i])
		}
	}
}

// TestWakeAtKeepsRecordReplayClean pins that targeted wakes draw no
// scheduling decisions: a recorded wake run produces an empty decision
// script under FIFO, identical to the plain systematic mode.
func TestWakeAtKeepsRecordReplayClean(t *testing.T) {
	opts := systematicOpts(nil, map[int64]trace.GoID{1: 4})
	opts.Record = true
	_, r := runOrder(t, opts)
	if len(r.Schedule) != 0 {
		t.Fatalf("wake run recorded %d decisions, want 0 (wakes must bypass the decider)", len(r.Schedule))
	}
}
