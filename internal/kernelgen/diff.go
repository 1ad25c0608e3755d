package kernelgen

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"goat/internal/cover"
	"goat/internal/engine"
	"goat/internal/goker"
	"goat/internal/harness"
	"goat/internal/sim"
)

// DiffConfig bounds one differential campaign.
type DiffConfig struct {
	// N is the number of kernels to generate.
	N int
	// Seed drives both the decision strings and the schedule seeds.
	Seed int64
	// BuggyFrac is the fraction of kernels with a planted bug (default 0.5).
	BuggyFrac float64
	// DMax is the largest GoAT delay bound swept (default 3: D ∈ {0..3}).
	DMax int
	// Sweep is how many schedule seeds each kernel runs per delay bound
	// (default 3).
	Sweep int
	// Tools overrides the column lineup (default harness.DiffTools(DMax)).
	// The oracle rules key on Detector.Name(), so a wrapped detector under
	// test must keep its wrapped tool's name.
	Tools []harness.Spec
	// NoShrink reports findings without minimizing them.
	NoShrink bool
	// MaxFindings stops the campaign early once this many disagreements
	// are collected (0 = no limit).
	MaxFindings int
}

func (c DiffConfig) dmax() int {
	if c.DMax <= 0 {
		return 3
	}
	return c.DMax
}

func (c DiffConfig) sweep() int {
	if c.Sweep <= 0 {
		return 3
	}
	return c.Sweep
}

func (c DiffConfig) buggyFrac() float64 {
	if c.BuggyFrac <= 0 || c.BuggyFrac > 1 {
		return 0.5
	}
	return c.BuggyFrac
}

func (c DiffConfig) tools() []harness.Spec {
	if c.Tools == nil {
		return harness.DiffTools(c.dmax())
	}
	return c.Tools
}

// Finding is one disagreement between a detector's verdict and the
// constructed ground truth, minimized to the smallest decision string
// that still reproduces it.
type Finding struct {
	Kernel   int    // campaign kernel index
	Tool     string // tool whose verdict disagreed
	Rule     string // which oracle rule was violated
	Detail   string // human-readable account of the disagreement
	Seed     int64  // schedule seed of the disagreeing run
	Delays   int    // delay bound of the disagreeing run
	Decision []byte // original decision string
	Shrunk   []byte // minimized decision string (== Decision when NoShrink)
	Prog     *Prog  // the minimized program
}

// String renders the finding for reports.
func (f *Finding) String() string {
	return fmt.Sprintf("kernel #%d tool=%s seed=%d D=%d rule=%s: %s\n  decision %x shrunk to %x (%d -> %d bytes)\n  %s",
		f.Kernel, f.Tool, f.Seed, f.Delays, f.Rule, f.Detail,
		f.Decision, f.Shrunk, len(f.Decision), len(f.Shrunk), f.Prog)
}

// ReproKernel packages the minimized program as a registerable kernel
// named after the campaign, so the reproducer can join the goker registry
// and run under `goat -bug <id>`.
func (f *Finding) ReproKernel() goker.Kernel {
	return f.Prog.Kernel(fmt.Sprintf("fuzz_%s_k%d", f.Tool, f.Kernel))
}

// DiffReport summarizes one differential campaign.
type DiffReport struct {
	Kernels  int
	Runs     int
	Findings []*Finding
	// Covered / Total are the accumulated CU-coverage counts across every
	// traced run: generated kernels feed the same global coverage model
	// the GoKer campaigns use.
	Covered, Total int
}

// String renders the campaign summary.
func (r *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential campaign: %d kernel(s), %d run(s), %d finding(s)",
		r.Kernels, r.Runs, len(r.Findings))
	if r.Total > 0 {
		fmt.Fprintf(&b, ", coverage %d/%d CUs (%.1f%%)",
			r.Covered, r.Total, 100*float64(r.Covered)/float64(r.Total))
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "\n\nFINDING %s", f)
	}
	return b.String()
}

// RunDiff runs the differential campaign: generate N kernels, run each
// under every tool across the seed/delay sweep, cross-check every verdict
// against the planted oracle and the wait-for-graph ground truth, and
// shrink every disagreement to a minimal reproducer.
func RunDiff(cfg DiffConfig) *DiffReport {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tools := cfg.tools()
	rep := &DiffReport{Kernels: cfg.N}
	model := cover.NewModel(nil)

	buggyEvery := int(1 / cfg.buggyFrac())
	for i := 0; i < cfg.N; i++ {
		buggy := buggyEvery > 0 && i%buggyEvery == 0
		dec := RandomDecision(rng, buggy)
		p := Generate(dec)
		v := examine(p, tools, cfg.Seed, cfg.sweep(), &rep.Runs, model)
		if v == nil {
			continue
		}
		f := &Finding{
			Kernel:   i,
			Tool:     v.tool,
			Rule:     v.rule,
			Detail:   v.detail,
			Seed:     v.seed,
			Delays:   v.delays,
			Decision: dec,
			Shrunk:   dec,
			Prog:     p,
		}
		if !cfg.NoShrink {
			f.Shrunk = Shrink(dec, func(cand []byte) bool {
				return reproduces(Generate(cand), tools, v, cfg.Seed, cfg.sweep())
			})
			f.Prog = Generate(f.Shrunk)
		}
		rep.Findings = append(rep.Findings, f)
		if cfg.MaxFindings > 0 && len(rep.Findings) >= cfg.MaxFindings {
			break
		}
	}
	rep.Covered, rep.Total = model.CoveredCount(), model.Total()
	return rep
}

// violation is one concrete oracle-rule breach observed during examine.
type violation struct {
	tool   string
	rule   string
	detail string
	seed   int64
	delays int
}

// examine sweeps one kernel across (seed, delay) pairs, feeding every
// tool whose Spec matches the run's delay bound, and returns the first
// violation (nil if all verdicts agree with the oracle).
//
// The sweep runs on the campaign engine with NeedTrace set: every tool
// and the ground-truth oracle inspect the same full ECT per run, and the
// engine recycles the trace buffer across the whole grid.
func examine(p *Prog, tools []harness.Spec, baseSeed int64, sweep int, runs *int, model *cover.Model) *violation {
	delays := map[int]bool{}
	for _, spec := range tools {
		delays[spec.Delays] = true
	}
	// The (seed, delay) grid, in the sweep's canonical order.
	type point struct {
		seed int64
		d    int
	}
	var grid []point
	for s := 0; s < sweep; s++ {
		for d := 0; d <= maxDelay(delays); d++ {
			if delays[d] {
				grid = append(grid, point{seed: baseSeed + int64(s), d: d})
			}
		}
	}
	if len(grid) == 0 {
		return nil
	}

	var hit *violation
	_, err := engine.Run(context.Background(), engine.Config{
		Prog: p.Main(),
		Plan: func(i int, _ *engine.Feedback) sim.Options {
			return sim.Options{Seed: grid[i].seed, Delays: grid[i].d}
		},
		Runs:      len(grid),
		NeedTrace: true,
		OnRun: func(fb *engine.Feedback) (bool, error) {
			r := fb.Result
			seed, d := grid[fb.Index].seed, grid[fb.Index].d
			*runs++
			if err := CheckGroundTruth(p, r); err != nil {
				hit = &violation{
					tool: "ground-truth", rule: "wait-for-graph",
					detail: err.Error(), seed: seed, delays: d,
				}
				return true, nil
			}
			if model != nil && r.Trace != nil {
				model.AddRun(r.Trace)
			}
			for _, spec := range tools {
				if spec.Delays != d {
					continue
				}
				if v := checkVerdict(spec, p.Oracle, r); v != nil {
					v.seed, v.delays = seed, d
					hit = v
					return true, nil
				}
			}
			return false, nil
		},
	})
	if err != nil {
		// The grid is static and OnRun never errors; defensive only.
		panic(err)
	}
	return hit
}

func maxDelay(delays map[int]bool) int {
	m := 0
	for d := range delays {
		if d > m {
			m = d
		}
	}
	return m
}

// checkVerdict applies the per-tool oracle rules to one run. Each rule is
// a biconditional tied to what the tool's real counterpart can observe,
// so a baseline legitimately missing a bug (the paper's whole point) is
// never a finding — only a verdict that contradicts the tool's own
// observation power is.
func checkVerdict(spec harness.Spec, o Oracle, r *sim.Result) *violation {
	d := spec.Detector.Detect(r)
	name := spec.Detector.Name()
	v := func(rule, format string, args ...any) *violation {
		return &violation{
			tool: spec.Name, rule: rule,
			detail: fmt.Sprintf(format, args...) + fmt.Sprintf(" (verdict %q, outcome %s)", d.Verdict, r.Outcome),
		}
	}
	switch name {
	case "goat":
		// GoAT sees the full trace: it must flag exactly the buggy runs,
		// with the verdict class matching the runtime's classification.
		if want := r.Outcome.Buggy(); d.Found != want {
			return v("goat-found", "Found=%v, ground truth requires %v", d.Found, want)
		}
		if r.Outcome == sim.OutcomeGlobalDeadlock && d.Verdict != "GDL" {
			return v("goat-verdict", "global deadlock misclassified")
		}
		if r.Outcome == sim.OutcomeLeak && !strings.HasPrefix(d.Verdict, "PDL") {
			return v("goat-verdict", "leak misclassified")
		}
	case "builtin":
		// The runtime detector throws exactly on global deadlocks.
		if want := r.Outcome == sim.OutcomeGlobalDeadlock; d.Found != want {
			return v("builtin-found", "Found=%v, want %v", d.Found, want)
		}
	case "goleak":
		// goleak runs at main return: it flags exactly the leaks, and
		// hangs (without a verdict) when main never returns.
		if want := r.Outcome == sim.OutcomeLeak; d.Found != want {
			return v("goleak-found", "Found=%v, want %v", d.Found, want)
		}
		if r.Outcome == sim.OutcomeGlobalDeadlock && d.Verdict != "HANG" {
			return v("goleak-verdict", "blocked main must hang the end-of-main check")
		}
	case "lockdl":
		// The lock-order detector warns on every run whose trace shows the
		// planted lock-order violation (even healthy ABBA runs), on global
		// timeouts, and on nothing else.
		cycleVisible := o.Buggy && r.Trace != nil &&
			(o.Kind == BugDoubleLock || o.Kind == BugABBA)
		want := cycleVisible || r.Outcome == sim.OutcomeGlobalDeadlock
		if d.Found != want {
			return v("lockdl-found", "Found=%v, want %v (cycleVisible=%v)", d.Found, want, cycleVisible)
		}
	default:
		// Unknown tools are exercised but only ground-truth checked.
	}
	return nil
}

// reproduces reports whether a candidate decision string still triggers
// the original violation: same tool, same rule, at the original delay
// bound, under some seed of the sweep. Matching on (tool, rule) rather
// than the exact seed keeps shrinking robust for racy bugs, where
// removing structure shifts which schedules manifest.
func reproduces(p *Prog, tools []harness.Spec, orig *violation, baseSeed int64, sweep int) bool {
	for s := 0; s < sweep; s++ {
		seed := baseSeed + int64(s)
		r := sim.Run(sim.Options{Seed: seed, Delays: orig.delays}, p.Main())
		if orig.tool == "ground-truth" {
			if CheckGroundTruth(p, r) != nil {
				return true
			}
			continue
		}
		if CheckGroundTruth(p, r) != nil {
			continue // candidate broke the oracle itself: different problem
		}
		for _, spec := range tools {
			if spec.Name != orig.tool || spec.Delays != orig.delays {
				continue
			}
			if v := checkVerdict(spec, p.Oracle, r); v != nil && v.rule == orig.rule {
				return true
			}
		}
	}
	return false
}
