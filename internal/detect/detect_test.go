package detect

import (
	"strings"
	"testing"

	"goat/internal/conc"
	"goat/internal/sim"
)

func exec(fn func(*sim.G)) *sim.Result {
	return sim.Run(sim.Options{PreemptProb: -1}, fn)
}

// Bug programs used across the detector tests.

func progOK(g *sim.G) {
	ch := conc.NewChan[int](g, 0)
	g.Go("w", func(c *sim.G) { ch.Send(c, 1) })
	ch.Recv(g)
	g.Yield()
}

func progLeak(g *sim.G) {
	ch := conc.NewChan[int](g, 0)
	g.Go("orphan", func(c *sim.G) { ch.Send(c, 1) })
	g.Yield()
}

func progGDL(g *sim.G) {
	ch := conc.NewChan[int](g, 0)
	ch.Recv(g)
}

func progCrash(g *sim.G) {
	ch := conc.NewChan[int](g, 0)
	ch.Close(g)
	ch.Send(g, 1)
}

// progLockCycle: the classic AB-BA deadlock; whether it bites depends on
// schedule, but the lock-order cycle is visible in any run that
// interleaves the two critical sections.
func progLockCycle(g *sim.G) {
	a := conc.NewMutex(g)
	b := conc.NewMutex(g)
	wg := conc.NewWaitGroup(g)
	wg.Add(g, 2)
	g.Go("ab", func(c *sim.G) {
		a.Lock(c)
		c.Yield()
		b.Lock(c)
		b.Unlock(c)
		a.Unlock(c)
		wg.Done(c)
	})
	g.Go("ba", func(c *sim.G) {
		b.Lock(c)
		c.Yield()
		a.Lock(c)
		a.Unlock(c)
		b.Unlock(c)
		wg.Done(c)
	})
	wg.Wait(g)
}

func progDoubleLock(g *sim.G) {
	mu := conc.NewMutex(g)
	mu.Lock(g)
	mu.Lock(g)
}

func TestGoatDetectsEverything(t *testing.T) {
	cases := []struct {
		name    string
		prog    func(*sim.G)
		found   bool
		verdict string
	}{
		{"ok", progOK, false, "OK"},
		{"leak", progLeak, true, "PDL-1"},
		{"gdl", progGDL, true, "GDL"},
		{"crash", progCrash, true, "CRASH"},
	}
	for _, c := range cases {
		d := (Goat{}).Detect(exec(c.prog))
		if d.Found != c.found || d.Verdict != c.verdict {
			t.Errorf("%s: got (%v,%q), want (%v,%q)", c.name, d.Found, d.Verdict, c.found, c.verdict)
		}
	}
}

func TestGoatTimeout(t *testing.T) {
	r := sim.Run(sim.Options{PreemptProb: -1, MaxSteps: 300}, func(g *sim.G) {
		for {
			g.Yield()
		}
	})
	d := (Goat{}).Detect(r)
	if !d.Found || d.Verdict != "TO/GDL" {
		t.Fatalf("detection = %+v", d)
	}
}

func TestGoatWorksWithoutTrace(t *testing.T) {
	r := sim.Run(sim.Options{PreemptProb: -1, NoTrace: true}, progLeak)
	d := (Goat{}).Detect(r)
	if !d.Found {
		t.Fatalf("traceless leak not detected: %+v", d)
	}
}

func TestBuiltinOnlyGlobalDeadlocks(t *testing.T) {
	if d := (Builtin{}).Detect(exec(progLeak)); d.Found {
		t.Errorf("builtin claims to detect a leak: %+v", d)
	}
	if d := (Builtin{}).Detect(exec(progGDL)); !d.Found || d.Verdict != "GDL" {
		t.Errorf("builtin missed a global deadlock: %+v", d)
	}
	if d := (Builtin{}).Detect(exec(progCrash)); !d.Found || d.Verdict != "CRASH" {
		t.Errorf("builtin missed a crash: %+v", d)
	}
	if d := (Builtin{}).Detect(exec(progOK)); d.Found {
		t.Errorf("builtin false positive: %+v", d)
	}
}

func TestGoleakOnlyLeaksPastMain(t *testing.T) {
	if d := (Goleak{}).Detect(exec(progLeak)); !d.Found || !strings.HasPrefix(d.Verdict, "PDL") {
		t.Errorf("goleak missed a leak: %+v", d)
	}
	if d := (Goleak{}).Detect(exec(progGDL)); d.Found || d.Verdict != "HANG" {
		t.Errorf("goleak should hang on a global deadlock: %+v", d)
	}
	if d := (Goleak{}).Detect(exec(progOK)); d.Found {
		t.Errorf("goleak false positive: %+v", d)
	}
}

func TestLockDLFindsCycle(t *testing.T) {
	// Find a seed where the two critical sections interleave (both locks
	// acquired before either second acquisition) — the cycle is then in
	// the lock-order graph even if the run completes.
	foundWarn := false
	for seed := int64(0); seed < 50; seed++ {
		r := sim.Run(sim.Options{Seed: seed, Delays: 2}, progLockCycle)
		d := (LockDL{}).Detect(r)
		if d.Found {
			foundWarn = true
			break
		}
	}
	if !foundWarn {
		t.Fatal("lock-order cycle never reported over 50 seeds")
	}
}

func TestLockDLDoubleLock(t *testing.T) {
	d := (LockDL{}).Detect(exec(progDoubleLock))
	if !d.Found {
		t.Fatalf("double lock not reported: %+v", d)
	}
	if !strings.Contains(d.Detail, "double lock") && d.Verdict != "TO/GDL" {
		t.Fatalf("unexpected detail: %+v", d)
	}
}

func TestLockDLBlindToChannels(t *testing.T) {
	if d := (LockDL{}).Detect(exec(progLeak)); d.Found {
		t.Errorf("lockdl claims to see a channel leak: %+v", d)
	}
	// But a channel-caused global deadlock trips its timeout.
	if d := (LockDL{}).Detect(exec(progGDL)); !d.Found || d.Verdict != "TO/GDL" {
		t.Errorf("lockdl timeout missed: %+v", d)
	}
}

func TestLockDLCleanProgramQuiet(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := sim.Run(sim.Options{Seed: seed, Delays: 1}, func(g *sim.G) {
			a := conc.NewMutex(g)
			b := conc.NewMutex(g)
			wg := conc.NewWaitGroup(g)
			wg.Add(g, 2)
			for i := 0; i < 2; i++ {
				g.Go("w", func(c *sim.G) {
					a.Lock(c) // consistent order: a then b
					b.Lock(c)
					b.Unlock(c)
					a.Unlock(c)
					wg.Done(c)
				})
			}
			wg.Wait(g)
		})
		if d := (LockDL{}).Detect(r); d.Found {
			t.Fatalf("seed %d: false positive on consistent lock order: %+v", seed, d)
		}
	}
}
