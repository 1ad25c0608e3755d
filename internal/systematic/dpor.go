// Dynamic partial-order reduction over the Must-HB graph.
//
// Delay-bounded exploration (Explore) treats every op index as a
// potential yield point and samples placements blindly. DPOR asks the
// opposite question: it runs a schedule, asks the happens-before
// analysis *where reordering could matter*, and seeds backtrack points
// only there.
//
// A run is expanded when it is not a sleep hit (below) and its placement
// holds fewer than Config.MaxYields yields: its trace is replayed
// through hb.BuildDeps in Must mode (lock-induced edges dropped — another
// schedule could acquire the locks in the other order, so they must not
// mask reorderability). A *racing pair* is a dependent, Must-concurrent,
// co-enabled pair of events of different goroutines: the certificate
// that executing them in the other order is both reachable (some
// scheduler choice runs the other side first) and meaningful (the two
// operations do not commute). Deps.RacingPairs compares only pairs that
// can be dependent (the events of one resource, and a create or unblock
// against its target goroutine's events), so an expansion costs about
// the trace length, not its square. For the earlier event of each racing
// pair, the explorer seeds a backtrack point: a forced yield at the op
// where that event's goroutine dispatched it, which defers the
// goroutine's entire suffix and lets the racing peer run first. Three
// filters keep the point set minimal:
//
//   - window collapsing: yields at consecutive ops of the same goroutine
//     with no racing event between them defer the same reorderable
//     suffix up to independent (commuting) operations, so only the
//     earliest schedulable op of each window is seeded — which is also
//     exactly the placement Explore's ascending sweep would find first,
//     the alignment the equivalence battery pins;
//   - the runnable census (Result.OpRunnable, sim.Options.RecordOps): a
//     yield at an op with no runnable peer reschedules the same
//     goroutine and cannot realize any reversal;
//   - the queued set: a child whose placement was already enqueued is
//     dropped (SkippedDup), so no placement runs twice.
//
// The sleep-set analogue is the Full-mode footprint memo: a run whose
// footprint was already visited is an equivalent interleaving of an
// explored schedule, so it is never *expanded* (its racing pairs would
// seed the same reversals again — by the reorder-persistence property
// the footprint certifies). Every run's footprint comes from replaying
// its trace through one recycled Full-mode hb.Engine, which keeps no
// snapshot of the clocks. Runs == SleepHits + DistinctFootprints is an
// invariant the tests assert.
//
// Exploration is breadth-first in placement depth, children ordered by
// op index, each level extending only past its parent's last yield —
// every placement is generated at most once, bounded by Config.MaxYields
// and the Config.MaxRuns budget over candidates considered. The campaign
// loop itself is engine.Run: planning pops the work queue, analysis and
// expansion happen in the OnRun observer, and detection streams through
// detect.Goat's online core, the same core Explore's post-hoc
// detect.Goat replays each trace through, so verdicts are byte-identical.
package systematic

import (
	"context"
	"fmt"
	"sort"

	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/hb"
	"goat/internal/sim"
	"goat/internal/telemetry"
	"goat/internal/trace"
)

// DPORStats accounts for an ExploreDPOR search.
type DPORStats struct {
	Considered         int // candidate placements examined, bounded by Config.MaxRuns
	Runs               int // placements executed
	Backtracks         int // backtrack points seeded (children enqueued)
	SkippedNoop        int // racing windows with no schedulable yield point
	SkippedDup         int // candidates whose placement was already queued
	SleepHits          int // executed runs footprint-equivalent to an explored one
	DistinctFootprints int // distinct HB-equivalence classes among executed runs
	MaxDepth           int // deepest placement executed (number of yields)
}

// String renders the stats in one line for reports.
func (st DPORStats) String() string {
	return fmt.Sprintf("%d considered: %d run, %d backtracks, %d noop-skipped, %d dup-skipped, %d sleep hits, %d distinct HB classes, depth %d",
		st.Considered, st.Runs, st.Backtracks, st.SkippedNoop, st.SkippedDup, st.SleepHits, st.DistinctFootprints, st.MaxDepth)
}

// dporNode is one placement in the exploration tree.
type dporNode struct {
	yields []int64 // sorted ascending
	depth  int
}

// maxOp returns the node's last forced yield op (0 for the root).
func (n *dporNode) maxOp() int64 {
	if len(n.yields) == 0 {
		return 0
	}
	return n.yields[len(n.yields)-1]
}

// placementKey is the dedup key of a placement.
func placementKey(yields []int64) string { return fmt.Sprint(yields) }

// candidate is one seeded backtrack point: the yield op and the racing
// peer that the yield lets run first.
type candidate struct {
	op   int64
	peer trace.GoID
}

// ExploreDPOR searches the yield-placement space with dynamic
// partial-order reduction driven by the Must-mode happens-before graph.
// On the same Config it finds the same bugs as Explore while executing a
// fraction of the schedules; the equivalence battery in dpor_test.go is
// the proof. It returns nil when the budget is spent without a detection.
func ExploreDPOR(prog func(*sim.G), cfg Config) (*Finding, DPORStats) {
	st := &DPORStats{}
	defer func() {
		if telemetry.Enabled() {
			telemetry.SysPlacementsRun.Add(int64(st.Runs))
			telemetry.SysPlacementsPruned.Add(int64(st.SkippedNoop + st.SkippedDup))
			telemetry.SysDPORBacktracks.Add(int64(st.Backtracks))
			telemetry.SysDPORSleepHits.Add(int64(st.SleepHits))
		}
	}()

	footprints := map[uint64]bool{}
	fpEngine := hb.NewEngine(hb.Full)
	queued := map[string]bool{}
	root := &dporNode{yields: []int64{}}
	work := []*dporNode{root}
	queued[placementKey(root.yields)] = true
	st.Considered++

	var cur *dporNode
	var finding *Finding

	plan := func(i int, _ *engine.Feedback) sim.Options {
		cur, work = work[0], work[1:]
		opts := baseOptions(cfg.Seed)
		opts.YieldAt = append([]int64{}, cur.yields...)
		opts.RecordOps = true
		return opts
	}

	onRun := func(fb *engine.Feedback) (bool, error) {
		node := cur
		st.Runs++
		if node.depth > st.MaxDepth {
			st.MaxDepth = node.depth
		}
		if fb.Detection != nil && fb.Detection.Found {
			finding = &Finding{
				Seed:      cfg.Seed,
				Yields:    append([]int64{}, node.yields...),
				Runs:      st.Runs,
				Detection: *fb.Detection,
			}
			return true, nil
		}
		fpEngine.Load(fb.Result.Trace)
		fp := fpEngine.Footprint()
		if footprints[fp] {
			// Sleep set: an equivalent interleaving was already explored
			// and expanded; re-expanding would seed the same reversals.
			st.SleepHits++
		} else {
			footprints[fp] = true
			if node.depth < cfg.maxYields() {
				expand(node, fb.Result, cfg, st, &work, queued)
			}
		}
		st.DistinctFootprints = len(footprints)
		return len(work) == 0, nil
	}

	_, err := engine.Run(context.Background(), engine.Config{
		Prog:        prog,
		Plan:        plan,
		Runs:        cfg.maxRuns(),
		Detector:    detect.Goat{},
		NeedTrace:   true, // the footprint and the racing pairs read the ECT
		StopOnFound: true,
		OnRun:       onRun,
	})
	if err != nil {
		// The engine only errors on misconfiguration or a cancelled
		// context; neither applies here, but a partial search still
		// reports honestly: no finding.
		return nil, *st
	}
	return finding, *st
}

// expand seeds the node's backtrack points: one child placement per
// racing window of the node's own run, each extending the placement past
// its last yield.
func expand(node *dporNode, r *sim.Result, cfg Config, st *DPORStats, work *[]*dporNode, queued map[string]bool) {
	m := node.maxOp()
	var cands []candidate
	if r.Ops >= sim.SliceOpBudget {
		// Past the slice-op budget forced preempts perturb the suffix and
		// the window reasoning below is no longer a proof: a forced yield
		// resets the slice counter and so moves every later forced
		// preempt. Degrade to a sweep over every suffix op with a
		// runnable peer rather than risk losing a schedule.
		for op := m + 1; op <= int64(r.Ops); op++ {
			if op-1 < int64(len(r.OpRunnable)) && r.OpRunnable[op-1] == 0 {
				continue
			}
			cands = append(cands, candidate{op: op})
		}
	} else {
		var noop int
		cands, noop = dporCandidates(r, m)
		st.SkippedNoop += noop
	}
	for _, c := range cands {
		if st.Considered >= cfg.maxRuns() {
			return
		}
		st.Considered++
		child := &dporNode{
			yields: append(append([]int64{}, node.yields...), c.op),
			depth:  node.depth + 1,
		}
		key := placementKey(child.yields)
		if queued[key] {
			st.SkippedDup++
			continue
		}
		queued[key] = true
		*work = append(*work, child)
		st.Backtracks++
	}
}

// dporCandidates derives the backtrack points of one run: for every
// racing window — a maximal range of one goroutine's ops after the
// node's last intervention containing exactly one racing event, at its
// end — the earliest op with a runnable peer. Returned sorted by op;
// windows with no schedulable op are counted as noops.
func dporCandidates(r *sim.Result, m int64) ([]candidate, int) {
	deps := hb.BuildDeps(r.Trace, hb.Must)

	// Per-goroutine op timeline, from the actor census.
	opsOf := map[trace.GoID][]int64{}
	for idx, g := range r.OpActor {
		opsOf[g] = append(opsOf[g], int64(idx+1))
	}

	// Racing events, grouped by the earlier event's goroutine and mapped
	// to the op that dispatched the event (EventOps); each carries the
	// peer that should be scheduled first instead.
	type racingOp struct {
		op   int64
		peer trace.GoID
	}
	ropsOf := map[trace.GoID][]racingOp{}
	for _, p := range deps.RacingPairs() {
		if !deps.CoEnabled(p[0], p[1]) {
			continue
		}
		e := deps.Events[p[0]]
		if p[0] >= len(r.EventOps) {
			continue
		}
		op := r.EventOps[p[0]]
		if op == 0 {
			continue // dispatched before the goroutine's first op
		}
		ropsOf[e.G] = append(ropsOf[e.G], racingOp{op: op, peer: deps.Events[p[1]].G})
	}

	gs := make([]trace.GoID, 0, len(ropsOf))
	for g := range ropsOf {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })

	var cands []candidate
	noops := 0
	seen := map[int64]bool{}
	for _, g := range gs {
		rops := ropsOf[g]
		sort.Slice(rops, func(i, j int) bool { return rops[i].op < rops[j].op })
		prev := int64(0) // end of the previous racing window of g
		for _, rp := range rops {
			if rp.op == prev {
				continue // several pairs share the racing event's op
			}
			if rp.op <= m {
				prev = rp.op
				continue // reversal handled by an ancestor or sibling
			}
			winLo := prev + 1
			if winLo <= m {
				winLo = m + 1
			}
			prev = rp.op
			found := false
			for _, o := range opsOf[g] {
				if o < winLo || o > rp.op {
					continue
				}
				if o-1 >= int64(len(r.OpRunnable)) || r.OpRunnable[o-1] == 0 {
					continue // no runnable peer: yield is a no-op
				}
				if !seen[o] {
					seen[o] = true
					cands = append(cands, candidate{op: o, peer: rp.peer})
				}
				found = true
				break
			}
			if !found {
				noops++
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].op < cands[j].op })
	return cands, noops
}
