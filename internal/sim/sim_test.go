package sim

import (
	"maps"
	"runtime"
	"testing"

	"goat/internal/trace"
)

// quiet options: no preemption noise, no yields — fully deterministic.
func quiet() Options { return Options{PreemptProb: -1} }

func TestRunTrivialMain(t *testing.T) {
	r := Run(quiet(), func(g *G) {})
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v, want OK", r.Outcome)
	}
	if !r.MainEnded || len(r.Leaked) != 0 {
		t.Fatalf("result = %v", r)
	}
	if err := r.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	types := r.Trace.CountByType()
	if types[trace.EvGoStart] != 1 || types[trace.EvGoEnd] != 1 {
		t.Fatalf("lifecycle events = %v", types)
	}
}

func TestSpawnAndJoinViaBlockReady(t *testing.T) {
	var order []string
	r := Run(quiet(), func(g *G) {
		var waiter *G
		done := false
		g.Go("child", func(c *G) {
			order = append(order, "child")
			done = true
			if waiter != nil {
				c.Ready(waiter, 0, nil)
			}
		})
		if !done {
			waiter = g
			g.Block(trace.BlockRecv, 0, "test.go", 1)
		}
		order = append(order, "main")
	})
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", r.Outcome, r)
	}
	if len(order) != 2 || order[0] != "child" || order[1] != "main" {
		t.Fatalf("order = %v", order)
	}
}

func TestGlobalDeadlock(t *testing.T) {
	r := Run(quiet(), func(g *G) {
		g.Block(trace.BlockRecv, 0, "test.go", 2) // nobody will wake us
	})
	if r.Outcome != OutcomeGlobalDeadlock {
		t.Fatalf("outcome = %v, want GDL", r.Outcome)
	}
	if r.MainEnded {
		t.Fatal("main should not have ended")
	}
}

func TestLeakWhenMainExits(t *testing.T) {
	r := Run(quiet(), func(g *G) {
		g.Go("stuck", func(c *G) {
			c.Block(trace.BlockSend, 0, "test.go", 3)
		})
		// Give the child a chance to start and block.
		g.Yield()
	})
	if r.Outcome != OutcomeLeak {
		t.Fatalf("outcome = %v, want PDL (result %v)", r.Outcome, r)
	}
	if len(r.Leaked) != 1 || r.Leaked[0].Name != "stuck" {
		t.Fatalf("leaked = %v", r.Leaked)
	}
	if r.Leaked[0].Reason != trace.BlockSend {
		t.Fatalf("leak reason = %v, want chan-send", r.Leaked[0].Reason)
	}
}

func TestLeakOfNeverScheduledGoroutine(t *testing.T) {
	// Main exits immediately; the child may never even start. Either way it
	// must be drained (run to completion) rather than reported leaked,
	// because it is runnable, finishes, and the drain lets it.
	r := Run(quiet(), func(g *G) {
		g.Go("late", func(c *G) {})
	})
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v, want OK after drain", r.Outcome)
	}
}

func TestTimeoutOnLivelock(t *testing.T) {
	opts := quiet()
	opts.MaxSteps = 500
	r := Run(opts, func(g *G) {
		for {
			g.Yield()
		}
	})
	if r.Outcome != OutcomeTimeout {
		t.Fatalf("outcome = %v, want TO", r.Outcome)
	}
}

func TestDrainBudgetBoundsSpinningLeftovers(t *testing.T) {
	opts := quiet()
	opts.DrainSteps = 200
	r := Run(opts, func(g *G) {
		g.Go("spinner", func(c *G) {
			for {
				c.Yield()
			}
		})
	})
	if r.Outcome != OutcomeLeak {
		t.Fatalf("outcome = %v, want PDL for spinning leftover", r.Outcome)
	}
	if len(r.Leaked) != 1 || r.Leaked[0].State != StateRunnable {
		t.Fatalf("leaked = %v", r.Leaked)
	}
}

func TestCrashOnPanic(t *testing.T) {
	r := Run(quiet(), func(g *G) {
		g.Go("bomber", func(c *G) {
			panic("boom")
		})
		g.Yield()
		g.Yield()
	})
	if r.Outcome != OutcomeCrash {
		t.Fatalf("outcome = %v, want CRASH", r.Outcome)
	}
	if r.PanicVal != "boom" {
		t.Fatalf("panic value = %v", r.PanicVal)
	}
}

func TestTimersAdvanceVirtualTime(t *testing.T) {
	var woke []string
	r := Run(quiet(), func(g *G) {
		g.Go("late", func(c *G) {
			c.s.AddTimer(c.s.Now()+200, c)
			c.Block(trace.BlockSleep, 0, "test.go", 5)
			woke = append(woke, "late")
		})
		g.Go("early", func(c *G) {
			c.s.AddTimer(c.s.Now()+100, c)
			c.Block(trace.BlockSleep, 0, "test.go", 6)
			woke = append(woke, "early")
		})
		g.s.AddTimer(g.s.Now()+300, g)
		g.Block(trace.BlockSleep, 0, "test.go", 7)
		woke = append(woke, "main")
	})
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", r.Outcome, r)
	}
	if len(woke) != 3 || woke[0] != "early" || woke[1] != "late" || woke[2] != "main" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	prog := func(g *G) {
		for i := 0; i < 3; i++ {
			g.Go("w", func(c *G) {
				c.HandlerHere()
				c.Yield()
			})
		}
		g.Yield()
		g.Yield()
	}
	opts := Options{Seed: 42, Delays: 2}
	a := Run(opts, prog)
	b := Run(opts, prog)
	if a.Trace.String() != b.Trace.String() {
		t.Fatalf("same seed produced different traces:\n%s\n----\n%s", a.Trace, b.Trace)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	prog := func(g *G) {
		for i := 0; i < 4; i++ {
			g.Go("w", func(c *G) { c.Yield(); c.Yield() })
		}
		g.Yield()
		g.Yield()
	}
	base := Run(Options{Seed: 1, PreemptProb: -1}, prog).Trace.String()
	diverged := false
	for seed := int64(2); seed < 12; seed++ {
		if Run(Options{Seed: seed, PreemptProb: -1}, prog).Trace.String() != base {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("10 different seeds all produced the identical schedule")
	}
}

func TestYieldBudgetRespected(t *testing.T) {
	opts := Options{Seed: 7, Delays: 3, YieldProb: 1.0, PreemptProb: -1}
	r := Run(opts, func(g *G) {
		for i := 0; i < 10; i++ {
			g.Handler("f.go", i)
		}
	})
	scheds := r.Trace.CountByType()[trace.EvGoSched]
	if scheds != 3 {
		t.Fatalf("forced yields = %d, want exactly 3 (the budget)", scheds)
	}
}

func TestNoYieldsWhenDelaysZero(t *testing.T) {
	opts := Options{Seed: 7, Delays: 0, YieldProb: 1.0, PreemptProb: -1}
	r := Run(opts, func(g *G) {
		for i := 0; i < 10; i++ {
			g.Handler("f.go", i)
		}
	})
	if n := r.Trace.CountByType()[trace.EvGoSched]; n != 0 {
		t.Fatalf("yields = %d, want 0 at D=0", n)
	}
}

func TestSystemGoroutinesExcludedFromLeaks(t *testing.T) {
	r := Run(quiet(), func(g *G) {
		g.GoSystem("sys", func(c *G) {
			c.Block(trace.BlockSleep, 0, "sys.go", 1)
		})
		g.Yield()
	})
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v, want OK (system goroutines never leak)", r.Outcome)
	}
	found := false
	for _, gi := range r.Goroutines {
		if gi.Name == "sys" && gi.System {
			found = true
		}
	}
	if !found {
		t.Fatal("system goroutine missing from snapshot")
	}
}

// stopOnCreate is an early-stop sink that asks for a stop once it has
// seen a goroutine created.
type stopOnCreate struct{ stop bool }

func (s *stopOnCreate) Event(e trace.Event) { s.stop = s.stop || e.Type == trace.EvGoCreate }
func (s *stopOnCreate) Close()              {}
func (s *stopOnCreate) StopRequested() bool { return s.stop }

// TestNoRealGoroutineLeakAcrossRuns drives every way a host can leave
// its job, 200 runs each, and requires every run to give back each host
// it took: the idle pool ends as exactly the set of hosts it started
// with, and no real goroutine is left behind.
func TestNoRealGoroutineLeakAcrossRuns(t *testing.T) {
	stuck := func(c *G) { c.Block(trace.BlockRecv, 0, "t.go", 1) }
	cases := []struct {
		name string
		opts func() Options
		want Outcome
		main func(*G)
	}{
		{"normal end", quiet, OutcomeOK, func(g *G) {
			g.Go("fine", func(*G) {})
			g.Yield()
		}},
		{"user panic", quiet, OutcomeCrash, func(g *G) {
			g.Go("boom", func(*G) { panic("boom") })
			stuck(g)
		}},
		{"blocked at stopWorld", quiet, OutcomeLeak, func(g *G) {
			g.Go("stuck", stuck)
			g.Yield()
		}},
		{"blocking defer at stopWorld", quiet, OutcomeLeak, func(g *G) {
			g.Go("stuck", func(c *G) {
				defer c.Block(trace.BlockSend, 0, "t.go", 2)
				stuck(c)
			})
			g.Yield()
		}},
		{"spawned while unwinding", quiet, OutcomeLeak, func(g *G) {
			g.Go("stuck", func(c *G) {
				defer c.Go("late", stuck)
				stuck(c)
			})
			g.Yield()
		}},
		{"never dispatched after early stop", func() Options {
			o := quiet()
			o.Sinks = []trace.Sink{&stopOnCreate{}}
			return o
		}, OutcomeStopped, func(g *G) {
			g.Go("late", stuck)
			g.Yield()
		}},
		{"never dispatched after crash", quiet, OutcomeCrash, func(g *G) {
			g.Go("late", stuck)
			panic("boom")
		}},
		{"never dispatched after step budget", func() Options {
			o := quiet()
			o.MaxSteps = 1
			return o
		}, OutcomeTimeout, func(g *G) {
			g.Go("late", stuck)
			g.Yield()
		}},
	}
	// Park more idle hosts than any case holds at once, so no run has to
	// create one.
	Run(quiet(), func(g *G) {
		for i := 0; i < 8; i++ {
			g.Go("warm", func(*G) {})
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idle := idleHosts()
			before := runtime.NumGoroutine()
			for i := 0; i < 200; i++ {
				o := tc.opts()
				o.Seed = int64(i)
				if r := Run(o, tc.main); r.Outcome != tc.want {
					t.Fatalf("run %d: outcome = %v, want %v", i, r.Outcome, tc.want)
				}
			}
			if after := idleHosts(); !maps.Equal(after, idle) {
				t.Errorf("idle hosts: %d before, %d after, or not the same set", len(idle), len(after))
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("real goroutines leaked: before=%d after=%d", before, n)
			}
		})
	}
}

// TestSurplusHostsAreStopped ends more goroutines at once than the idle
// pool may hold: the pool fills to its cap and every surplus host's
// coroutine is stopped rather than left parked.
func TestSurplusHostsAreStopped(t *testing.T) {
	idle := len(idleHosts())
	before := runtime.NumGoroutine()
	r := Run(quiet(), func(g *G) {
		for i := 0; i < hostFreeCap+100; i++ {
			g.Go("stuck", func(c *G) { c.Block(trace.BlockRecv, 0, "t.go", 1) })
		}
	})
	if r.Outcome != OutcomeLeak {
		t.Fatalf("outcome = %v, want %v", r.Outcome, OutcomeLeak)
	}
	if n := len(idleHosts()); n != hostFreeCap {
		t.Errorf("idle hosts = %d, want the cap %d", n, hostFreeCap)
	}
	if n := runtime.NumGoroutine(); n-before != hostFreeCap-idle {
		t.Errorf("real goroutines: before=%d after=%d, want %d more", before, n, hostFreeCap-idle)
	}
	// Shrink the pool back to its size before the test.
	hostFree.Lock()
	extra := append([]*host(nil), hostFree.list[idle:]...)
	hostFree.list = hostFree.list[:idle]
	hostFree.Unlock()
	for _, h := range extra {
		h.stop()
	}
}

// idleHosts is the set of hosts parked in the pool.
func idleHosts() map[*host]bool {
	hostFree.Lock()
	defer hostFree.Unlock()
	set := make(map[*host]bool, len(hostFree.list))
	for _, h := range hostFree.list {
		set[h] = true
	}
	return set
}

func TestTraceIsValidAndAttributed(t *testing.T) {
	r := Run(quiet(), func(g *G) {
		g.Go("child", func(c *G) {})
		g.Yield()
	})
	if err := r.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, r.Trace)
	}
	var ev trace.Event
	for _, e := range r.Trace.Events {
		if e.Type == trace.EvGoCreate && e.Peer == 2 {
			ev = e
			break
		}
	}
	if ev.Type != trace.EvGoCreate {
		t.Fatal("no GoCreate for child")
	}
	if ev.File != "sim_test.go" || ev.Line == 0 {
		t.Fatalf("creation CU = %s:%d, want sim_test.go:<line>", ev.File, ev.Line)
	}
	if ev.Str != "child" {
		t.Fatalf("creation name = %q", ev.Str)
	}
}

func TestNoTraceOption(t *testing.T) {
	opts := quiet()
	opts.NoTrace = true
	r := Run(opts, func(g *G) { g.Go("c", func(*G) {}); g.Yield() })
	if r.Trace != nil {
		t.Fatal("NoTrace run still captured a trace")
	}
	if r.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", r.Outcome)
	}
}

func TestPickFIFODeterministicOrder(t *testing.T) {
	var order []int
	opts := Options{Pick: PickFIFO, PreemptProb: -1}
	Run(opts, func(g *G) {
		for i := 0; i < 5; i++ {
			i := i
			g.Go("w", func(c *G) { order = append(order, i) })
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 goroutines", len(order))
	}
}

func TestOutcomeStringsAndBuggy(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeOK:             "OK",
		OutcomeGlobalDeadlock: "GDL",
		OutcomeLeak:           "PDL",
		OutcomeTimeout:        "TO",
		OutcomeCrash:          "CRASH",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
		if o.Buggy() != (o != OutcomeOK) {
			t.Errorf("%v.Buggy() wrong", o)
		}
	}
}

func TestResultStringMentionsLeaks(t *testing.T) {
	r := Run(quiet(), func(g *G) {
		g.Go("stuck", func(c *G) { c.Block(trace.BlockMutex, 0, "t.go", 9) })
		g.Yield()
	})
	s := r.String()
	for _, want := range []string{"PDL", "stuck", "mutex"} {
		if !containsStr(s, want) {
			t.Fatalf("Result.String() = %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
