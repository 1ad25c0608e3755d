// Package systematic implements delay-bounded systematic schedule testing
// and schedule minimization — the deterministic counterpart of GoAT's
// probabilistic yield injection, in the tradition of the delay-bounded
// exploration the paper builds on.
//
// In systematic mode the entire schedule is a deterministic function of
// (seed, yield placement): the base schedule runs FIFO with no noise, and
// a configuration adds forced yields at chosen concurrency-usage indices
// (the global op counter). The explorer searches placements within the
// delay bound D; the minimizer then shrinks a bug-triggering placement to
// a minimal one — directly quantifying the paper's observation that the
// benchmark's bugs fall to "less than three yields".
package systematic

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"goat/internal/detect"
	"goat/internal/sim"
	"goat/internal/telemetry"
)

// Config bounds an exploration.
type Config struct {
	// Seed drives placement sampling and the base schedule's select picks.
	Seed int64
	// MaxYields is the delay bound D (default 3).
	MaxYields int
	// MaxRuns caps the number of executions (default 2000).
	MaxRuns int
}

func (c Config) maxYields() int {
	if c.MaxYields <= 0 {
		return 3
	}
	return c.MaxYields
}

func (c Config) maxRuns() int {
	if c.MaxRuns <= 0 {
		return 2000
	}
	return c.MaxRuns
}

// baseOptions is the deterministic substrate every configuration shares.
func baseOptions(seed int64) sim.Options {
	return sim.Options{
		Seed:        seed,
		Pick:        sim.PickFIFO,
		PreemptProb: -1,
		YieldAt:     []int64{}, // non-nil: systematic mode even with no yields
	}
}

// runWith executes prog with yields forced at the given op indices.
func runWith(prog func(*sim.G), seed int64, yields []int64) *sim.Result {
	opts := baseOptions(seed)
	opts.YieldAt = append([]int64{}, yields...)
	return sim.Run(opts, prog)
}

// Finding is a bug-triggering configuration.
type Finding struct {
	Seed      int64
	Yields    []int64 // op indices of the forced yields, ascending
	Runs      int     // executions spent until this configuration
	Detection detect.Detection
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("%s with %d yield(s) at ops %v (after %d runs, seed %d)",
		f.Detection.Verdict, len(f.Yields), f.Yields, f.Runs, f.Seed)
}

// DecisionString renders the placement as a portable decision string:
// "base" for the empty placement, otherwise the forced yields as
// comma-joined "y<op>" terms in op order. The string fully determines
// the schedule given (prog, seed), so it is the replayable reproducer the
// DPOR explorer verifies findings with (see Replay).
func (f Finding) DecisionString() string {
	if len(f.Yields) == 0 {
		return "base"
	}
	terms := make([]string, len(f.Yields))
	for i, op := range f.Yields {
		terms[i] = fmt.Sprintf("y%d", op)
	}
	return strings.Join(terms, ",")
}

// Replay re-executes the finding's exact schedule and returns the
// result: the deterministic substrate guarantees the run reproduces the
// recorded detection, which is how equivalence gates verify a finding
// without trusting the explorer that produced it.
func (f Finding) Replay(prog func(*sim.G)) *sim.Result {
	return runWith(prog, f.Seed, f.Yields)
}

// Explore searches yield placements within the bound for a configuration
// that makes GoAT report a bug. It returns nil when the budget is spent
// without a detection (including when the base schedule is already buggy —
// then the empty placement is the finding).
func Explore(prog func(*sim.G), cfg Config) *Finding {
	goat := detect.Goat{}
	runs := 0
	defer func() {
		if telemetry.Enabled() {
			telemetry.SysPlacementsRun.Add(int64(runs))
		}
	}()
	try := func(yields []int64) (*Finding, *sim.Result) {
		runs++
		r := runWith(prog, cfg.Seed, yields)
		if d := goat.Detect(r); d.Found {
			sorted := append([]int64{}, yields...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			return &Finding{Seed: cfg.Seed, Yields: sorted, Runs: runs, Detection: d}, r
		}
		return nil, r
	}

	// The base schedule first: a deterministic bug needs no yields.
	f, base := try(nil)
	if f != nil {
		return f
	}
	n := int64(base.Ops)
	if n == 0 {
		return nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	// Exhaustive single-yield sweep while the budget lasts; it subsumes
	// random sampling for D=1 and finds most narrow windows immediately.
	for op := int64(1); op <= n && runs < cfg.maxRuns(); op++ {
		if f, _ := try([]int64{op}); f != nil {
			return f
		}
	}
	// Random placements of 2..D yields (bounded by the op count: a
	// program with N ops admits at most N distinct yield points).
	maxK := cfg.maxYields()
	if int64(maxK) > n {
		maxK = int(n)
	}
	if maxK < 2 {
		return nil
	}
	for runs < cfg.maxRuns() {
		k := 2 + rng.Intn(maxK-1)
		set := map[int64]bool{}
		for len(set) < k {
			set[1+rng.Int63n(n)] = true
		}
		yields := make([]int64, 0, k)
		for op := range set {
			yields = append(yields, op)
		}
		if f, _ := try(yields); f != nil {
			return f
		}
	}
	return nil
}

// Minimize shrinks a bug-triggering yield placement to a locally minimal
// one (removing any single yield loses the bug), preserving the verdict
// class. It is the ddmin-style reducer applied to schedule debugging.
func Minimize(prog func(*sim.G), f *Finding) *Finding {
	goat := detect.Goat{}
	reproduces := func(yields []int64) bool {
		r := runWith(prog, f.Seed, yields)
		d := goat.Detect(r)
		return d.Found
	}
	cur := append([]int64{}, f.Yields...)
	runs := 0
	for {
		removed := false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]int64{}, cur[:i]...), cur[i+1:]...)
			runs++
			if reproduces(cand) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			break
		}
	}
	r := runWith(prog, f.Seed, cur)
	return &Finding{
		Seed:      f.Seed,
		Yields:    cur,
		Runs:      f.Runs + runs,
		Detection: (detect.Goat{}).Detect(r),
	}
}
