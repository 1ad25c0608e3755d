package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"goat/internal/conc"
	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/goker"
	"goat/internal/sim"
)

// cellConfig is a Table IV-style campaign cell: one rare kernel under the
// GoAT detector with a delay bound, stopping at first detection.
func cellConfig(t *testing.T) engine.Config {
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
		Runs:        200,
		Detector:    detect.Goat{},
		StopOnFound: true,
	}
}

// TestStreamingCellMatchesPostHoc holds the streamed GoAT verdict to the
// post-hoc one. With NeedTrace set, every run's streamed verdict must
// equal detect.Goat{}.Detect over the same run's ECT, and the detecting
// run keeps its trace past the campaign. Without NeedTrace the cell runs
// trace-free and finds the same run with the same verdict.
func TestStreamingCellMatchesPostHoc(t *testing.T) {
	cfg := cellConfig(t)
	cfg.NeedTrace = true
	runs := 0
	cfg.OnRun = func(fb *engine.Feedback) (bool, error) {
		runs++
		if fb.Result.Trace == nil {
			t.Fatalf("run %d: NeedTrace campaign buffered no trace", fb.Index)
		}
		if post := (detect.Goat{}).Detect(fb.Result); post != *fb.Detection {
			t.Fatalf("run %d: streamed %+v, post-hoc %+v", fb.Index, *fb.Detection, post)
		}
		return false, nil
	}
	traced, err := engine.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	free, err := engine.Run(context.Background(), cellConfig(t))
	if err != nil {
		t.Fatalf("trace-free: %v", err)
	}
	if traced.Found == nil || free.Found == nil {
		t.Fatalf("found: traced %v, trace-free %v", traced.Found, free.Found)
	}
	if runs != traced.Found.Index+1 {
		t.Errorf("OnRun saw %d runs, want %d", runs, traced.Found.Index+1)
	}
	if traced.Found.Index != free.Found.Index {
		t.Errorf("detection index: traced %d, trace-free %d", traced.Found.Index, free.Found.Index)
	}
	if *traced.Found.Detection != *free.Found.Detection {
		t.Errorf("detection: traced %+v, trace-free %+v", *traced.Found.Detection, *free.Found.Detection)
	}
	if free.Found.Result.Trace != nil {
		t.Error("trace-free cell buffered a trace")
	}
	if traced.Found.Result.Trace == nil {
		t.Error("detecting run lost its trace")
	}
}

// TestDetectingRunKeepsItsTrace: a buffering campaign that keeps running
// past its detection reuses trace storage for the later runs, yet the
// detecting run's ECT must come back intact — event for event the trace
// a fresh run of the same plan records.
func TestDetectingRunKeepsItsTrace(t *testing.T) {
	for _, par := range []int{1, 4} {
		cfg := cellConfig(t)
		cfg.NeedTrace = true
		cfg.StopOnFound = false
		cfg.Parallel = par
		rep, err := engine.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if rep.Found == nil || rep.Found.Index >= cfg.Runs-1 {
			t.Fatalf("parallel=%d: want a detection before the last run, got %v", par, rep.Found)
		}
		if rep.Runs != cfg.Runs {
			t.Fatalf("parallel=%d: campaign ran %d/%d executions", par, rep.Runs, cfg.Runs)
		}
		got := rep.Found.Result.Trace
		if got == nil {
			t.Fatalf("parallel=%d: detecting run lost its trace", par)
		}
		want := sim.Run(cfg.Plan(rep.Found.Index, nil), cfg.Prog).Trace
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Errorf("parallel=%d: run %d's kept trace (%d events) differs from a fresh run's (%d events)",
				par, rep.Found.Index, got.Len(), want.Len())
		}
	}
}

// resultOnly is a detector with no streaming form: it can only judge a
// run after it ends.
type resultOnly struct{}

func (resultOnly) Name() string { return "result-only" }

func (resultOnly) Detect(r *sim.Result) detect.Detection {
	return detect.Goat{}.Detect(r)
}

// TestPostHocDetectorGetsTrace: a detector without a streaming form
// judges the ECT after the run, so the engine buffers every run's trace
// even though the caller did not set NeedTrace.
func TestPostHocDetectorGetsTrace(t *testing.T) {
	cfg := cellConfig(t)
	cfg.Detector = resultOnly{}
	cfg.Runs = 20
	cfg.StopOnFound = false
	runs := 0
	cfg.OnRun = func(fb *engine.Feedback) (bool, error) {
		runs++
		if fb.Result.Trace == nil {
			t.Errorf("run %d: post-hoc detector got no trace", fb.Index)
		}
		return false, nil
	}
	if _, err := engine.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if runs != cfg.Runs {
		t.Fatalf("OnRun saw %d/%d runs", runs, cfg.Runs)
	}
}

func TestParallelCellMatchesSequential(t *testing.T) {
	seq, err := engine.Run(context.Background(), cellConfig(t))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg := cellConfig(t)
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

// abbaProg takes two locks in both orders, planting a lock-order cycle.
func abbaProg(g *sim.G) {
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
}

func TestOnRunObservesRunsInOrderWithCoverage(t *testing.T) {
	model := cover.NewModel(nil)
	var seen []int
	rep, err := engine.Run(context.Background(), engine.Config{
		Prog: abbaProg,
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
func timeoutConfig(d detect.Detector) engine.Config {
	return engine.Config{
		Prog: livelockProg,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: 1 + int64(i), MaxSteps: 300}
		},
		Runs:        16,
		Detector:    d,
		StopOnFound: true,
	}
}

// TestTimeoutClassificationUnderParallel pins OutcomeTimeout handling in
// parallel mode: a campaign whose every run times out must report the
// same detection at the same index as the sequential campaign, and the
// detecting run must carry the TO outcome.
func TestTimeoutClassificationUnderParallel(t *testing.T) {
	seq, err := engine.Run(context.Background(), timeoutConfig(detect.Goat{}))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg := timeoutConfig(detect.Goat{})
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
	cfg := timeoutConfig(detect.Builtin{})
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
	cfg := cellConfig(t)
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
	cfg := cellConfig(t)
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
