package sim

import (
	"testing"

	"goat/internal/trace"
)

// systematicOpts returns deterministic systematic-mode options: FIFO
// dispatch, no probabilistic yields or preempts, forced yields only.
func systematicOpts(yields []int64) Options {
	if yields == nil {
		yields = []int64{}
	}
	return Options{Pick: PickFIFO, PreemptProb: -1, YieldAt: yields}
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
	opts := systematicOpts(nil)
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
	opts := systematicOpts(nil)
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
