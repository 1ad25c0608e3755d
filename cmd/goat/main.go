// Command goat is the paper's CLI: it statically analyzes and instruments
// native Go programs, and runs GoKer bug kernels on the virtual runtime
// with schedule perturbation, deadlock detection and coverage measurement.
//
// Usage patterns (mirroring the paper's artifact):
//
//	goat -list
//	goat -bug moby_28462 -d 2 -freq 100 -cov
//	goat -bug etcd_7443 -tool lockdl -freq 1000
//	goat -path ./someprogram                 # print the CU model M
//	goat -path ./someprogram -instrument out # rewrite sources into out/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"goat/internal/cover"
	"goat/internal/cu"
	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/fault"
	"goat/internal/goker"
	"goat/internal/gtree"
	"goat/internal/instrument"
	"goat/internal/obs"
	"goat/internal/profile"
	"goat/internal/race"
	"goat/internal/report"
	"goat/internal/sim"
	"goat/internal/systematic"
	"goat/internal/telemetry"
	"goat/internal/trace"
)

// obsTrace, when -obs mounts the live endpoint, receives the detecting
// run's ECT so /profile/* serves its block/mutex/goroutine profiles.
var obsTrace *obs.LatestTrace

func main() {
	var (
		path      = flag.String("path", "", "target folder of Go sources (static analysis)")
		instOut   = flag.String("instrument", "", "with -path: write instrumented sources to this folder")
		bug       = flag.String("bug", "", "run a GoKer kernel by ID")
		list      = flag.Bool("list", false, "list the GoKer kernels")
		d         = flag.Int("d", 0, "number of delays (yield bound D)")
		freq      = flag.Int("freq", 1, "frequency of executions")
		covFlag   = flag.Bool("cov", false, "include coverage report in evaluation")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "with -bug: run up to this many executions concurrently (per-run reporting modes run sequentially)")
		seed      = flag.Int64("seed", 0, "base RNG seed")
		tool      = flag.String("tool", "goat", "detector: goat|builtin|lockdl|goleak")
		raceOn    = flag.Bool("race", false, "enable the happens-before data race checker")
		traceOut  = flag.String("traceout", "", "with -bug: write the detecting run's ECT to this file")
		minimize  = flag.Bool("minimize", false, "with -bug: DPOR systematic search + minimal yield placement")
		htmlOut   = flag.String("htmlout", "", "with -bug: write an HTML timeline of the detecting run")
		timeline  = flag.String("timeline", "", "with -bug: write a Chrome/Perfetto timeline (ECT + campaign phases) of the detecting run")
		faultSpec = flag.String("faults", "", `with -bug: fault-injection spec, e.g. "stall=2,cancel=1,skew=0.3,slow=2,panic=1"`)
		predict   = flag.Bool("predict", false, "with -bug: mine one passing execution for predicted blocking hazards")
		obsAddr   = flag.String("obs", "", "mount the observability endpoint (/metrics, /profile/*, /healthz) on this address")
	)
	flag.Parse()

	if *obsAddr != "" {
		telemetry.Enable()
		obsTrace = &obs.LatestTrace{}
		srv := &obs.Server{Profiles: obsTrace.Set}
		addr, err := srv.Start(*obsAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "goat: observability endpoint on http://%s\n", addr)
	}

	faults, err := validateFlags(*bug, *tool, *minimize, *traceOut, *htmlOut, *timeline, *faultSpec, *predict)
	if err != nil {
		fatal(err)
	}

	// SIGINT cancels the campaign at the next run boundary; a second
	// SIGINT kills the process outright (signal.NotifyContext restores
	// the default handler once the context is done).
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	switch {
	case *list:
		listKernels()
	case *bug != "" && *predict:
		if err := predictBug(*bug, *seed, *d); err != nil {
			fatal(err)
		}
	case *bug != "" && *minimize:
		if err := minimizeBug(*bug, *seed, *d, *freq); err != nil {
			fatal(err)
		}
	case *bug != "":
		if err := runBug(ctx, *bug, *tool, *d, *freq, *parallel, *seed, *covFlag, *raceOn, *traceOut, *htmlOut, *timeline, faults); err != nil {
			fatal(err)
		}
	case *path != "":
		if err := analyzePath(*path, *instOut); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "goat:", err)
	os.Exit(1)
}

// validateFlags rejects meaningless flag combinations up front with a
// one-line error instead of silently ignoring them.
func validateFlags(bug, tool string, minimize bool, traceOut, htmlOut, timeline, faultSpec string, predict bool) (fault.Options, error) {
	if bug == "" {
		switch {
		case minimize:
			return fault.Options{}, fmt.Errorf("-minimize requires -bug")
		case traceOut != "":
			return fault.Options{}, fmt.Errorf("-traceout requires -bug")
		case htmlOut != "":
			return fault.Options{}, fmt.Errorf("-htmlout requires -bug")
		case timeline != "":
			return fault.Options{}, fmt.Errorf("-timeline requires -bug")
		case faultSpec != "":
			return fault.Options{}, fmt.Errorf("-faults requires -bug")
		case predict:
			return fault.Options{}, fmt.Errorf("-predict requires -bug")
		}
	}
	if predict && (minimize || faultSpec != "") {
		return fault.Options{}, fmt.Errorf("-predict cannot be combined with -minimize or -faults")
	}
	if _, err := detectorFor(tool); err != nil {
		return fault.Options{}, fmt.Errorf("%v (want goat|builtin|lockdl|goleak)", err)
	}
	if minimize && faultSpec != "" {
		return fault.Options{}, fmt.Errorf("-faults cannot be combined with -minimize (systematic search assumes a fault-free schedule space)")
	}
	faults, err := fault.ParseSpec(faultSpec)
	if err != nil {
		return fault.Options{}, fmt.Errorf("bad -faults spec: %v", err)
	}
	return faults, nil
}

func listKernels() {
	fmt.Printf("%-22s %-12s %-14s %-6s %s\n", "ID", "project", "cause", "rare", "expected")
	for _, k := range goker.All() {
		rare := ""
		if k.Rare {
			rare = "yes"
		}
		fmt.Printf("%-22s %-12s %-14s %-6s %s\n", k.ID, k.Project, k.Cause, rare, k.Expect)
	}
}

func detectorFor(name string) (detect.Detector, error) {
	switch name {
	case "goat":
		return detect.Goat{}, nil
	case "builtin":
		return detect.Builtin{}, nil
	case "lockdl":
		return detect.LockDL{}, nil
	case "goleak":
		return detect.Goleak{}, nil
	default:
		return nil, fmt.Errorf("unknown tool %q", name)
	}
}

func runBug(ctx context.Context, id, tool string, d, freq, parallel int, seed int64, covFlag, raceOn bool, traceOut, htmlOut, timeline string, faults fault.Options) error {
	k, ok := goker.ByID(id)
	if !ok {
		return fmt.Errorf("unknown bug %q (try -list)", id)
	}
	det, err := detectorFor(tool)
	if err != nil {
		return err
	}
	if timeline != "" {
		// The timeline export carries the campaign's phase spans as its
		// second track set, so telemetry runs for this campaign.
		telemetry.Enable()
		defer telemetry.Disable()
	}
	fmt.Printf("bug %s (%s, %s deadlock): %s\n\n", k.ID, k.Project, k.Cause, k.Description)
	if faults.Enabled() {
		fmt.Printf("fault injection: %s\n\n", faults)
	}

	model := cover.NewModel(nil)
	cfg := engine.Config{
		Prog: k.Main,
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: seed + int64(i), Delays: d, Faults: faults}
		},
		Runs:        freq,
		Detector:    det,
		NeedTrace:   true, // the detection report prints the goroutine tree
		StopOnFound: true,
	}
	if covFlag {
		cfg.Coverage = model
	}
	if covFlag || raceOn || faults.Enabled() {
		// Per-run reporting needs the executions observed in order, so
		// these modes run sequentially regardless of -parallel.
		cfg.OnRun = func(fb *engine.Feedback) (bool, error) {
			r, trial := fb.Result, fb.Index
			if faults.Enabled() && len(r.Faults) > 0 {
				fmt.Printf("run %3d: %d fault(s) injected\n", trial+1, len(r.Faults))
			}
			if raceOn && r.Trace != nil {
				for _, rc := range race.Check(r.Trace) {
					fmt.Printf("run %3d: %s\n", trial+1, rc)
				}
			}
			if st := fb.Stats; st != nil {
				fmt.Printf("run %3d: outcome=%-5s coverage %5.1f%% (%d/%d)\n",
					trial+1, r.Outcome, st.Percent, st.Covered, st.Total)
			}
			return false, nil
		}
	} else {
		cfg.Parallel = parallel
	}
	endCampaign := telemetry.Default.Span("campaign", fmt.Sprintf("campaign %s/%s", id, tool))
	rep, err := engine.Run(ctx, cfg)
	endCampaign()
	if errors.Is(err, context.Canceled) {
		fmt.Printf("\ninterrupted after %d execution(s); partial results above\n", rep.Runs)
		return nil
	}
	if err != nil {
		return err
	}
	if f := rep.Found; f != nil {
		r, det2 := f.Result, *f.Detection
		if obsTrace != nil && r.Trace != nil {
			obsTrace.Store(r.Trace, profile.Options{})
		}
		fmt.Printf("\nbug exposed on execution %d (seed %d, D=%d)\n\n", f.Index+1, r.Seed, d)
		fmt.Println(report.Detection(r, det2))
		if covFlag {
			fmt.Println("coverage table:")
			fmt.Println(report.CoverageTable(nil, model))
		}
		if traceOut != "" && r.Trace != nil {
			if err := writeTrace(traceOut, r.Trace); err != nil {
				return err
			}
			fmt.Printf("ECT written to %s (%d events); inspect with cmd/goattrace\n", traceOut, r.Trace.Len())
		}
		if timeline != "" && r.Trace != nil {
			w, err := os.Create(timeline)
			if err != nil {
				return err
			}
			exportErr := r.Trace.EncodeChrome(w, trace.ChromeOptions{
				Spans: telemetry.ChromeSpans(telemetry.Default.Spans()),
			})
			if cerr := w.Close(); exportErr == nil {
				exportErr = cerr
			}
			if exportErr != nil {
				return exportErr
			}
			fmt.Printf("Chrome timeline written to %s (load in ui.perfetto.dev)\n", timeline)
		}
		if htmlOut != "" && r.Trace != nil {
			tree, err := gtree.Build(r.Trace)
			if err != nil {
				return err
			}
			page := report.HTMLTimeline(tree, fmt.Sprintf("%s — %s (seed %d, D=%d)", k.ID, det2.Verdict, r.Seed, d))
			if err := os.WriteFile(htmlOut, []byte(page), 0o644); err != nil {
				return err
			}
			fmt.Printf("HTML timeline written to %s\n", htmlOut)
		}
		return nil
	}
	fmt.Printf("\nbug not exposed in %d execution(s) with %s at D=%d\n", freq, tool, d)
	if covFlag {
		fmt.Println(report.CoverageTable(nil, model))
	}
	return nil
}

// predictBug runs one execution of a kernel and mines its trace for
// predicted blocking hazards: bugs the schedule did not manifest but the
// synchronization skeleton proves possible (-predict).
func predictBug(id string, seed int64, d int) error {
	k, ok := goker.ByID(id)
	if !ok {
		return fmt.Errorf("unknown bug %q (try -list)", id)
	}
	fmt.Printf("bug %s (%s, %s deadlock): %s\n\n", k.ID, k.Project, k.Cause, k.Description)
	r := sim.Run(sim.Options{Seed: seed, Delays: d}, k.Main)
	det := detect.Predictive{}.Detect(r)
	fmt.Printf("execution (seed %d, D=%d): outcome=%s\n", seed, d, r.Outcome)
	if det.Found && r.Outcome.Buggy() {
		fmt.Printf("\nbug manifested — no prediction needed:\n\n%s\n", report.Detection(r, det))
		return nil
	}
	cands := detect.Predict(r.Trace)
	if len(cands) == 0 {
		fmt.Println("no predicted hazards in this trace")
		return nil
	}
	fmt.Printf("\npredicted hazards (%d):\n", len(cands))
	for _, c := range cands {
		fmt.Printf("  %s\n", c)
	}
	return nil
}

// minimizeBug runs the DPOR explorer and the schedule minimizer on a
// kernel, printing the minimal yield placement that reproduces the bug.
func minimizeBug(id string, seed int64, maxYields, maxRuns int) error {
	k, ok := goker.ByID(id)
	if !ok {
		return fmt.Errorf("unknown bug %q (try -list)", id)
	}
	fmt.Printf("bug %s: DPOR over the Must-HB graph (bound D=%d)...\n", k.ID, maxYieldsOrDefault(maxYields))
	cfg := systematic.Config{
		Seed:      seed,
		MaxYields: maxYields,
		MaxRuns:   maxRuns,
	}
	f, st := systematic.ExploreDPOR(k.Main, cfg)
	fmt.Printf("dpor: %s\n", st)
	if f == nil {
		fmt.Println("no bug-triggering yield placement within the budget")
		return nil
	}
	fmt.Printf("found: %s\n", f)
	min := systematic.Minimize(k.Main, f)
	fmt.Printf("minimized: %s\n\n", min)
	fmt.Println(report.Detection(min.Replay(k.Main), min.Detection))
	return nil
}

func maxYieldsOrDefault(d int) int {
	if d <= 0 {
		return 3
	}
	return d
}

func writeTrace(path string, t *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.Encode(f)
}

func analyzePath(dir, instOut string) error {
	if instOut != "" {
		model, err := instrument.Dir(dir, instOut, instrument.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("instrumented %s -> %s (%d concurrency usages)\n", dir, instOut, model.Len())
		fmt.Println(model)
		return nil
	}
	model, err := cu.ExtractDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("concurrency usage model M of %s (%d entries):\n\n", dir, model.Len())
	fmt.Println(model)
	return nil
}
