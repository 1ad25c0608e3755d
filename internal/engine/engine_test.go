package engine_test

import (
	"context"
	"runtime"
	"testing"

	"goat/internal/conc"
	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/goker"
	"goat/internal/sim"
	"goat/internal/trace"
)

// cellConfig is a Table IV-style campaign cell: one rare kernel under the
// GoAT detector with a delay bound, stopping at first detection.
func cellConfig(t *testing.T, buffered bool) engine.Config {
	t.Helper()
	k, ok := goker.ByID("kubernetes_6632")
	if !ok {
		t.Fatal("kernel kubernetes_6632 not registered")
	}
	return engine.Config{
		Prog: k.Main,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: 1 + int64(i), Delays: 2}
		},
		Runs:               200,
		Detector:           detect.Goat{},
		DetectorNeedsTrace: true,
		Buffered:           buffered,
		Pool:               trace.NewPool(),
		StopOnFound:        true,
	}
}

func TestStreamingCellMatchesBuffered(t *testing.T) {
	buf, err := engine.Run(context.Background(), cellConfig(t, true))
	if err != nil {
		t.Fatalf("buffered: %v", err)
	}
	str, err := engine.Run(context.Background(), cellConfig(t, false))
	if err != nil {
		t.Fatalf("streaming: %v", err)
	}
	if buf.Found == nil || str.Found == nil {
		t.Fatalf("found: buffered %v, streaming %v", buf.Found, str.Found)
	}
	if buf.Found.Index != str.Found.Index {
		t.Errorf("detection index: buffered %d, streaming %d", buf.Found.Index, str.Found.Index)
	}
	if *buf.Found.Detection != *str.Found.Detection {
		t.Errorf("detection: buffered %+v, streaming %+v", *buf.Found.Detection, *str.Found.Detection)
	}
	if str.Found.Result.Trace != nil {
		t.Error("streaming cell buffered a trace")
	}
	if buf.Found.Result.Trace == nil {
		t.Error("buffered cell's detecting run lost its trace to the pool")
	}
}

func TestParallelCellMatchesSequential(t *testing.T) {
	seq, err := engine.Run(context.Background(), cellConfig(t, false))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg := cellConfig(t, false)
	cfg.Parallel = 8
	par, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq.Found == nil || par.Found == nil {
		t.Fatalf("found: sequential %v, parallel %v", seq.Found, par.Found)
	}
	if seq.Found.Index != par.Found.Index || *seq.Found.Detection != *par.Found.Detection {
		t.Fatalf("parallel cell diverged: seq (%d, %+v) vs par (%d, %+v)",
			seq.Found.Index, *seq.Found.Detection, par.Found.Index, *par.Found.Detection)
	}
	if par.Runs < seq.Runs {
		t.Errorf("parallel ran %d < sequential's %d executions", par.Runs, seq.Runs)
	}
}

// TestParallelWorkersShareHostPool runs a two-worker campaign over the
// simulator's shared pool of goroutine hosts. Its runs crash before a
// child is dispatched, or leak a sender whose deferred send blocks again
// while stopWorld unwinds it, so hosts leave their jobs several ways and
// pass between the two workers' schedulers (checked under -race). Every
// host must come back: a second campaign may not add real goroutines
// beyond the two workers' peak.
func TestParallelWorkersShareHostPool(t *testing.T) {
	prog := func(g *sim.G) {
		ch := conc.NewChan[int](g, 0)
		g.Go("sender", func(c *sim.G) {
			defer ch.Send(c, 2)
			ch.Send(c, 1)
			ch.Send(c, 3)
		})
		if g.Sched().Intn(4) == 0 {
			panic("boom")
		}
		ch.Recv(g)
	}
	campaign := func() {
		rep, err := engine.Run(context.Background(), engine.Config{
			Prog: prog,
			Plan: func(i int, _ *engine.Feedback) sim.Options {
				return sim.Options{Seed: int64(i)}
			},
			Runs:     500,
			Parallel: 2,
			Detector: detect.Goat{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs != 500 {
			t.Fatalf("campaign ran %d/500 executions", rep.Runs)
		}
	}
	campaign()
	before := runtime.NumGoroutine()
	campaign()
	// Two runs in flight hold at most two hosts each.
	if n := runtime.NumGoroutine(); n > before+4 {
		t.Fatalf("real goroutines leaked: before=%d after=%d", before, n)
	}
}

// abbaProg takes two locks in both orders (planting a lock-order cycle
// early) and then spins, so a full observation is much longer than an
// early-stopped one.
func abbaProg(spin int) func(*sim.G) {
	return func(g *sim.G) {
		a := conc.NewMutex(g)
		b := conc.NewMutex(g)
		a.Lock(g)
		b.Lock(g)
		b.Unlock(g)
		a.Unlock(g)
		b.Lock(g)
		a.Lock(g)
		a.Unlock(g)
		b.Unlock(g)
		for i := 0; i < spin; i++ {
			g.Yield()
		}
	}
}

func TestEarlyStopShortensDecidedRun(t *testing.T) {
	run := func(early bool) *engine.Report {
		rep, err := engine.Run(context.Background(), engine.Config{
			Prog: abbaProg(500),
			Plan: func(i int, _ *engine.Feedback) sim.Options {
				return sim.Options{Seed: 1}
			},
			Runs:               1,
			Detector:           detect.LockDL{},
			DetectorNeedsTrace: true,
			EarlyStop:          early,
			StopOnFound:        true,
		})
		if err != nil {
			t.Fatalf("early=%v: %v", early, err)
		}
		if rep.Found == nil {
			t.Fatalf("early=%v: cycle not detected", early)
		}
		return rep
	}
	full := run(false)
	fast := run(true)
	for _, rep := range []*engine.Report{full, fast} {
		if rep.Found.Detection.Verdict != "DL" {
			t.Fatalf("verdict %+v, want DL", rep.Found.Detection)
		}
	}
	if fast.Found.Detection.Detail != full.Found.Detection.Detail {
		t.Errorf("early-stop changed the warning: %q vs %q",
			fast.Found.Detection.Detail, full.Found.Detection.Detail)
	}
	r := fast.Found.Result
	if r.Outcome != sim.OutcomeStopped || !r.EarlyStopped {
		t.Errorf("early-stopped run classified %v (EarlyStopped=%v), want STOP", r.Outcome, r.EarlyStopped)
	}
	if r.Steps >= full.Found.Result.Steps {
		t.Errorf("early stop did not shorten the run: %d vs %d steps", r.Steps, full.Found.Result.Steps)
	}
}

func TestOnRunObservesRunsInOrderWithCoverage(t *testing.T) {
	model := cover.NewModel(nil)
	var seen []int
	rep, err := engine.Run(context.Background(), engine.Config{
		Prog: abbaProg(0),
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: int64(i)}
		},
		Runs:     5,
		Coverage: model,
		OnRun: func(fb *engine.Feedback) (bool, error) {
			seen = append(seen, fb.Index)
			if fb.Stats == nil {
				t.Fatal("coverage stats missing")
			}
			if fb.Stats.Covered == 0 {
				t.Fatal("run covered nothing")
			}
			return fb.Index == 2, nil // caller-decided stop
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 3 {
		t.Fatalf("rep.Runs = %d, want 3", rep.Runs)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("observed indices %v", seen)
	}
	if model.Runs() != 3 {
		t.Fatalf("model accumulated %d runs, want 3", model.Runs())
	}
}

// livelockProg never settles: two goroutines trade the scheduler forever,
// so every run exhausts MaxSteps and is classified OutcomeTimeout.
func livelockProg(g *sim.G) {
	g.Go("ping", func(p *sim.G) {
		for {
			p.HandlerHere()
		}
	})
	for {
		g.HandlerHere()
	}
}

// timeoutConfig is a campaign over a livelocked kernel with a tight step
// budget: every execution times out and the detector must classify the
// hang, in sequential and parallel mode alike.
func timeoutConfig(d detect.Detector, needTrace bool) engine.Config {
	return engine.Config{
		Prog: livelockProg,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: 1 + int64(i), MaxSteps: 300}
		},
		Runs:               16,
		Detector:           d,
		DetectorNeedsTrace: needTrace,
		Pool:               trace.NewPool(),
		StopOnFound:        true,
	}
}

// TestTimeoutClassificationUnderParallel pins OutcomeTimeout handling in
// parallel mode: a campaign whose every run times out must report the
// same detection at the same index as the sequential campaign, and the
// detecting run must carry the TO outcome.
func TestTimeoutClassificationUnderParallel(t *testing.T) {
	seq, err := engine.Run(context.Background(), timeoutConfig(detect.Goat{}, true))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg := timeoutConfig(detect.Goat{}, true)
	cfg.Parallel = 8
	par, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq.Found == nil || par.Found == nil {
		t.Fatalf("timeout not detected: sequential %v, parallel %v", seq.Found, par.Found)
	}
	if seq.Found.Result.Outcome != sim.OutcomeTimeout {
		t.Fatalf("sequential detecting run outcome = %v, want TO", seq.Found.Result.Outcome)
	}
	if par.Found.Result.Outcome != sim.OutcomeTimeout {
		t.Fatalf("parallel detecting run outcome = %v, want TO", par.Found.Result.Outcome)
	}
	if seq.Found.Index != par.Found.Index || *seq.Found.Detection != *par.Found.Detection {
		t.Fatalf("parallel timeout classification diverged: seq (%d, %+v) vs par (%d, %+v)",
			seq.Found.Index, *seq.Found.Detection, par.Found.Index, *par.Found.Detection)
	}
}

// TestTimeoutInvisibleToBuiltinUnderParallel: the builtin detector calls a
// livelock HANG but does not count it as a detection, so the campaign
// exhausts its budget — in parallel mode too.
func TestTimeoutInvisibleToBuiltinUnderParallel(t *testing.T) {
	cfg := timeoutConfig(detect.Builtin{}, false)
	cfg.Parallel = 4
	rep, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Found != nil {
		t.Fatalf("builtin counted a livelock as a detection: %+v", rep.Found.Detection)
	}
	if rep.Runs != cfg.Runs {
		t.Fatalf("campaign stopped after %d/%d runs without a detection", rep.Runs, cfg.Runs)
	}
}

// TestCancellationStopsSequentialCampaign: canceling the context mid-
// campaign returns the partial report and ctx.Err() at the next run
// boundary.
func TestCancellationStopsSequentialCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := cellConfig(t, false)
	cfg.StopOnFound = false
	cfg.Runs = 50
	plan := cfg.Plan
	cfg.Plan = func(i int, prev *engine.Feedback) sim.Options {
		if i == 3 {
			cancel()
		}
		return plan(i, prev)
	}
	rep, err := engine.Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Runs == 0 || rep.Runs >= 50 {
		t.Fatalf("partial report runs = %+v, want a strict prefix of the campaign", rep)
	}
}

// TestCancellationStopsParallelCampaign: same contract under Parallel.
func TestCancellationStopsParallelCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cellConfig(t, false)
	cfg.Parallel = 4
	rep, err := engine.Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("canceled parallel campaign returned no report")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := engine.Run(context.Background(), engine.Config{}); err == nil {
		t.Fatal("empty config must error")
	}
	if _, err := engine.Run(context.Background(), engine.Config{
		Prog: func(*sim.G) {},
		Plan: func(int, *engine.Feedback) sim.Options { return sim.Options{} },
	}); err == nil {
		t.Fatal("zero Runs must error")
	}
}
