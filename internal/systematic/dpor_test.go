package systematic

import (
	"fmt"
	"strings"
	"testing"

	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/sim"
	"goat/internal/trace"
)

// TestExploreDPORMatchesExplore is the equivalence contract of the DPOR
// explorer: on every registered kernel, at several seeds, the
// dependency-driven search reports the same bug as the exhaustive one —
// the same verdict, and either the identical minimal yield placement or
// a placement verified equivalent by replay (Explore's random multi-yield
// phase is seed-lucky; DPOR's answer is deterministic). Across the suite
// DPOR must spend strictly fewer executions.
func TestExploreDPORMatchesExplore(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			exploreRuns, dporRuns := 0, 0
			for _, k := range goker.All() {
				cfg := Config{Seed: seed, MaxRuns: 400}
				f1 := Explore(k.Main, cfg)
				f2, st := ExploreDPOR(k.Main, cfg)
				if (f1 == nil) != (f2 == nil) {
					t.Errorf("%s: explore found=%v, dpor found=%v (stats: %s)", k.ID, f1 != nil, f2 != nil, st)
					continue
				}
				checkDPORStats(t, k.ID, st, f2 != nil)
				if f1 == nil {
					continue
				}
				if f1.Detection.Verdict != f2.Detection.Verdict {
					t.Errorf("%s: verdict %q vs %q", k.ID, f1.Detection.Verdict, f2.Detection.Verdict)
				}
				if fmt.Sprint(f1.Yields) != fmt.Sprint(f2.Yields) {
					// Not the identical placement: accept it only if DPOR's
					// finding independently replays to the same verdict.
					d := (detect.Goat{}).Detect(f2.Replay(k.Main))
					if !d.Found || d.Verdict != f1.Detection.Verdict {
						t.Errorf("%s: yields %v vs %v and replay does not verify (%+v)",
							k.ID, f1.Yields, f2.Yields, d)
					}
				}
				exploreRuns += f1.Runs
				dporRuns += f2.Runs
			}
			if dporRuns >= exploreRuns {
				t.Errorf("DPOR saved nothing: %d executions vs explore's %d", dporRuns, exploreRuns)
			}
			t.Logf("executions across the suite: explore %d, dpor %d (%.0f%% saved)",
				exploreRuns, dporRuns, 100*float64(exploreRuns-dporRuns)/float64(exploreRuns))
		})
	}
}

// checkDPORStats asserts the explorer's accounting invariants:
//   - every candidate examined is the root, a dup, or an enqueued child;
//   - every executed run either hit the sleep set (footprint memo) or
//     contributed a new HB class — except the detecting run, which
//     returns before analysis.
func checkDPORStats(t *testing.T, id string, st DPORStats, found bool) {
	t.Helper()
	if st.Considered != 1+st.SkippedDup+st.Backtracks {
		t.Errorf("%s: inconsistent candidate accounting: %s", id, st)
	}
	detecting := 0
	if found {
		detecting = 1
	}
	if st.Runs != st.SleepHits+st.DistinctFootprints+detecting {
		t.Errorf("%s: sleep-set invariant violated (found=%v): %s", id, found, st)
	}
	if st.Runs > st.Considered {
		t.Errorf("%s: more runs than candidates: %s", id, st)
	}
}

// TestExploreDPORSeedsOnlyRacingWindows pins the reduction itself on a
// kernel with a known shape: serving_2137's base schedule has three
// racing windows (lock acquisition, length check, the channel send), so
// the first expansion seeds exactly three backtrack points — not one per
// op as the blind sweep would.
func TestExploreDPORSeedsOnlyRacingWindows(t *testing.T) {
	k, ok := goker.ByID("serving_2137")
	if !ok {
		t.Fatal("serving_2137 not registered")
	}
	f, st := ExploreDPOR(k.Main, Config{Seed: 1, MaxRuns: 400})
	if f == nil {
		t.Fatalf("serving_2137 bug not found: %s", st)
	}
	if !strings.Contains(f.Detection.Verdict, "PDL") {
		t.Fatalf("verdict %q, want a PDL class", f.Detection.Verdict)
	}
	opts := baseOptions(1)
	opts.RecordOps = true
	base := sim.Run(opts, k.Main)
	cands, _ := dporCandidates(base, 0)
	if len(cands) != 3 {
		t.Errorf("base expansion seeded %d backtrack points (%v), want 3 racing windows", len(cands), cands)
	}
	if len(cands) >= base.Ops {
		t.Errorf("no reduction: %d backtrack points for a %d-op base run", len(cands), base.Ops)
	}
}

func TestExploreDPORRespectsBudget(t *testing.T) {
	healthy := func(g *sim.G) {
		g.Go("w", func(c *sim.G) { c.HandlerHere() })
		g.Yield()
	}
	f, st := ExploreDPOR(healthy, Config{MaxRuns: 50})
	if f != nil {
		t.Fatalf("healthy program reported buggy: %v", f)
	}
	if st.Considered > 50 {
		t.Fatalf("budget exceeded: %s", st)
	}
	checkDPORStats(t, "healthy", st, false)
}

// TestExploreDPORTerminatesEarly: on a healthy program the worklist
// drains — DPOR proves the bounded space exhausted and stops far below
// the budget, where Explore would burn all of MaxRuns sampling.
func TestExploreDPORTerminatesEarly(t *testing.T) {
	healthy := func(g *sim.G) {
		g.Go("w", func(c *sim.G) { c.HandlerHere(); c.HandlerHere() })
		g.HandlerHere()
		g.Yield()
	}
	f, st := ExploreDPOR(healthy, Config{MaxRuns: 400})
	if f != nil {
		t.Fatalf("healthy program reported buggy: %v", f)
	}
	if st.Runs >= 400 {
		t.Fatalf("DPOR did not terminate early: %s", st)
	}
}

func TestExploreDPORWakesMode(t *testing.T) {
	k, ok := goker.ByID("serving_2137")
	if !ok {
		t.Fatal("serving_2137 not registered")
	}
	f, st := exploreDPOR(k.Main, Config{Seed: 1, MaxRuns: 400}, true)
	if f == nil {
		t.Fatalf("wakes-mode search missed the bug: %s", st)
	}
	if len(f.Wakes) == 0 {
		t.Fatalf("wakes-mode finding carries no wake decisions: %v", f)
	}
	// The decision string must replay to the recorded detection.
	d := (detect.Goat{}).Detect(f.Replay(k.Main))
	if !d.Found || d.Verdict != f.Detection.Verdict {
		t.Fatalf("wake finding %q does not replay: %+v", f.DecisionString(), d)
	}
}

// TestMinimalYieldsClaim pins the paper's claim that the benchmark's
// rare bugs fall to fewer than three yields, measured as goatbench -exp
// yields does: DPOR at seeds 0-4 with MaxRuns 3000, then Minimize, over
// every rare kernel. kubernetes_6632 needs exactly three yields;
// kubernetes_11298's window also depends on select-case choices, so the
// FIFO base does not reach it within the budget.
func TestMinimalYieldsClaim(t *testing.T) {
	total, found, underThree := 0, 0, 0
	for _, k := range goker.All() {
		if !k.Rare {
			continue
		}
		total++
		var min *Finding
		for seed := int64(0); seed < 5 && min == nil; seed++ {
			if f, _ := ExploreDPOR(k.Main, Config{Seed: seed, MaxRuns: 3000}); f != nil {
				min = Minimize(k.Main, f)
			}
		}
		if (min == nil) != (k.ID == "kubernetes_11298") {
			t.Errorf("%s: found=%v", k.ID, min != nil)
		}
		if min == nil {
			continue
		}
		found++
		if len(min.Yields) < 3 {
			underThree++
		}
		if k.ID == "kubernetes_6632" && len(min.Yields) != 3 {
			t.Errorf("%s: minimal placement %v, want exactly 3 yields", k.ID, min.Yields)
		}
	}
	if total != 28 || found != 27 || underThree != 26 {
		t.Errorf("%d/%d rare bugs found, %d/%d under three yields; want 27/28 and 26/27",
			found, total, underThree, found)
	}
}

func TestDecisionString(t *testing.T) {
	cases := []struct {
		f    Finding
		want string
	}{
		{Finding{}, "base"},
		{Finding{Yields: []int64{4}}, "y4"},
		{Finding{Yields: []int64{2, 7}}, "y2,y7"},
		{Finding{Wakes: map[int64]trace.GoID{3: 2}}, "w3:g2"},
		{Finding{Yields: []int64{5}, Wakes: map[int64]trace.GoID{2: 4}}, "w2:g4,y5"},
	}
	for _, c := range cases {
		if got := c.f.DecisionString(); got != c.want {
			t.Errorf("DecisionString(%v/%v) = %q, want %q", c.f.Yields, c.f.Wakes, got, c.want)
		}
	}
}

func TestFindingReplayReproduces(t *testing.T) {
	for _, id := range []string{"serving_2137", "etcd_7443", "kubernetes_6632"} {
		k, ok := goker.ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		f, st := ExploreDPOR(k.Main, Config{Seed: 1, MaxRuns: 400})
		if f == nil {
			t.Fatalf("%s: no finding (%s)", id, st)
		}
		d := (detect.Goat{}).Detect(f.Replay(k.Main))
		if !d.Found || d.Verdict != f.Detection.Verdict {
			t.Errorf("%s: finding %q does not replay: got %+v want %q",
				id, f.DecisionString(), d, f.Detection.Verdict)
		}
	}
}

func TestDPORStatsString(t *testing.T) {
	s := DPORStats{Considered: 12, Runs: 5, Backtracks: 11, SkippedNoop: 2,
		SkippedDup: 1, SleepHits: 1, DistinctFootprints: 3, MaxDepth: 2}.String()
	for _, want := range []string{"12 considered", "5 run", "11 backtracks", "2 noop",
		"1 dup", "1 sleep", "3 distinct", "depth 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats %q missing %q", s, want)
		}
	}
}
