package harness

import (
	"strings"
	"testing"

	"goat/internal/detect"
	"goat/internal/goker"
)

// smallCfg keeps test campaigns fast while preserving the paper's shape.
func smallCfg() Config {
	return Config{MaxExecs: 200}
}

// tableIVOnce caches the campaign across tests (it is the expensive part).
var tableIVCache *TableIV

func tableIV(t *testing.T) *TableIV {
	t.Helper()
	if tableIVCache == nil {
		tableIVCache = RunTableIV(smallCfg())
	}
	return tableIVCache
}

func TestDefaultToolsLineup(t *testing.T) {
	tools := DefaultTools()
	if len(tools) != 8 {
		t.Fatalf("lineup = %d tools, want 8 (3 baselines + D0..D4)", len(tools))
	}
	if tools[0].Name != "builtin" || tools[7].Name != "goat-D4" {
		t.Fatalf("lineup order wrong: %v", tools)
	}
	if tools[7].Delays != 4 {
		t.Fatalf("goat-D4 delays = %d", tools[7].Delays)
	}
}

func TestGoatVariantsDetectAllBugs(t *testing.T) {
	tab := tableIV(t)
	// The paper's headline: the union of GoAT variants exposes 100% of
	// the 68 blocking bugs.
	missed := map[string]bool{}
	for _, row := range tab.Rows {
		detected := false
		for i, c := range row.Cells {
			if strings.HasPrefix(tab.Tools[i], "goat-") && c.Found {
				detected = true
			}
		}
		if !detected {
			missed[row.Bug] = true
		}
	}
	if len(missed) > 0 {
		t.Fatalf("GoAT variants missed %d bugs: %v", len(missed), missed)
	}
}

func TestBaselinesDetectStrictSubsets(t *testing.T) {
	tab := tableIV(t)
	counts := tab.DetectedCount()
	goatBest := 0
	for _, tool := range tab.Tools {
		if strings.HasPrefix(tool, "goat-") && counts[tool] > goatBest {
			goatBest = counts[tool]
		}
	}
	for _, base := range []string{"builtin", "lockdl", "goleak"} {
		if counts[base] >= goatBest {
			t.Errorf("%s detected %d ≥ best GoAT %d — baselines must underperform",
				base, counts[base], goatBest)
		}
	}
	// The built-in detector sees only global deadlocks; it must miss every
	// pure-leak bug (Expect PDL kernels that never globally deadlock).
	if counts["builtin"] >= len(tab.Rows)*3/4 {
		t.Errorf("builtin detected %d/%d — implausibly high", counts["builtin"], len(tab.Rows))
	}
}

func TestYieldsAccelerateRareBugs(t *testing.T) {
	tab := tableIV(t)
	// Average detection trials over rare bugs must not increase when
	// yields are enabled (D2 vs D0), the paper's central claim.
	avg := func(tool string) (float64, int) {
		sum, n := 0, 0
		for _, row := range tab.Rows {
			k, _ := goker.ByID(row.Bug)
			if !k.Rare {
				continue
			}
			for i, c := range row.Cells {
				if tab.Tools[i] == tool {
					sum += c.MinExecs
					n++
				}
			}
		}
		if n == 0 {
			return 0, 0
		}
		return float64(sum) / float64(n), n
	}
	d0, n0 := avg("goat-D0")
	d2, n2 := avg("goat-D2")
	if n0 == 0 || n2 == 0 {
		t.Fatal("no rare bugs in the suite")
	}
	if d2 > d0 {
		t.Errorf("rare-bug mean trials: D0=%.1f D2=%.1f — yields should accelerate", d0, d2)
	}
	if d0 < 1.5 {
		t.Errorf("rare bugs detected too easily at D0 (mean %.2f): suite lost its rarity", d0)
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Found: true, Verdict: "PDL-2", MinExecs: 3}
	if c.String() != "PDL-2 (3)" {
		t.Fatalf("cell = %q", c.String())
	}
	c = Cell{Found: false, MinExecs: 1000}
	if c.String() != "X (1000)" {
		t.Fatalf("cell = %q", c.String())
	}
}

func TestTableRendering(t *testing.T) {
	tab := tableIV(t)
	s := tab.String()
	for _, want := range []string{"BugID", "moby_28462", "goat-D0", "detected"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table rendering missing %q", want)
		}
	}
}

func TestFigure2Buckets(t *testing.T) {
	tab := tableIV(t)
	f := RunFigure2(tab, "goat-D0")
	total := 0
	for _, n := range f.Buckets {
		total += n
	}
	if total != len(tab.Rows) {
		t.Fatalf("figure 2 buckets sum to %d, want %d", total, len(tab.Rows))
	}
	// Paper: ~70% of bugs are caught in the very first native execution.
	if f.Buckets[0] < len(tab.Rows)/2 {
		t.Errorf("only %d/%d bugs detected on trial 1 at D0 — shape off", f.Buckets[0], len(tab.Rows))
	}
	// And a meaningful tail needs >1 execution.
	if f.Buckets[1]+f.Buckets[2]+f.Buckets[3]+f.Buckets[4] == 0 {
		t.Error("no bug needed more than one trial — rarity lost")
	}
	if !strings.Contains(f.String(), "Figure 2") {
		t.Error("rendering broken")
	}
}

func TestFigure4Classes(t *testing.T) {
	tab := tableIV(t)
	f := RunFigure4(tab)
	counts := tab.DetectedCount()
	for _, tool := range f.Tools {
		if f.Detected(tool) != counts[tool] {
			t.Errorf("%s: figure 4 total %d != detected %d", tool, f.Detected(tool), counts[tool])
		}
	}
	// goleak's detections are leaks (plus crashes), never GDL.
	if f.Counts["goleak"][1] != 0 {
		t.Errorf("goleak reported GDL detections: %v", f.Counts["goleak"])
	}
	// builtin's detections are GDL/TO (plus crashes), never PDL.
	if f.Counts["builtin"][0] != 0 {
		t.Errorf("builtin reported PDL detections: %v", f.Counts["builtin"])
	}
	if !strings.Contains(f.String(), "Figure 4") {
		t.Error("rendering broken")
	}
}

func TestFigure5Percentages(t *testing.T) {
	tab := tableIV(t)
	f := RunFigure5(tab)
	for _, tool := range f.Tools {
		sum := 0.0
		for _, p := range f.Percent[tool] {
			sum += p
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: percentages sum to %.2f", tool, sum)
		}
	}
	if !strings.Contains(f.String(), "Figure 5") {
		t.Error("rendering broken")
	}
}

func TestFigure6CoverageGrowth(t *testing.T) {
	ds := []int{0, 1, 2, 4}
	for _, bug := range []string{"etcd_7443", "kubernetes_11298"} {
		series, err := RunFigure6(bug, 30, ds, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			pts := series[d]
			if len(pts) != 30 {
				t.Fatalf("%s D%d: %d points", bug, d, len(pts))
			}
			if pts[len(pts)-1].Percent <= 0 {
				t.Errorf("%s D%d: final coverage %.1f%%", bug, d, pts[len(pts)-1].Percent)
			}
		}
		// More perturbation must not end up with dramatically less
		// coverage than native execution.
		last := func(d int) float64 { return series[d][29].Percent }
		if last(2) < last(0)-15 {
			t.Errorf("%s: D2 coverage %.1f%% far below D0 %.1f%%", bug, last(2), last(0))
		}
		out := RenderFigure6(bug, series, ds)
		if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "D4") {
			t.Error("rendering broken")
		}
	}
}

func TestRunFigure6UnknownBug(t *testing.T) {
	if _, err := RunFigure6("nope_1", 5, []int{0}, 0); err == nil {
		t.Fatal("unknown bug accepted")
	}
}

func TestMinExecsHonorsBudget(t *testing.T) {
	k, _ := goker.ByID("moby_33293") // deterministic leak
	// builtin never sees it: budget must be exhausted exactly.
	cell := MinExecs(k, Spec{Name: "builtin", Detector: detect.Builtin{}}, 25, 0)
	if cell.Found || cell.MinExecs != 25 {
		t.Fatalf("cell = %+v", cell)
	}
	// goat sees it on the first run.
	cell = MinExecs(k, Spec{Name: "goat", Detector: detect.Goat{}}, 25, 0)
	if !cell.Found || cell.MinExecs != 1 {
		t.Fatalf("cell = %+v", cell)
	}
}

func TestParallelCampaignMatchesSequential(t *testing.T) {
	cfg := Config{MaxExecs: 60, Kernels: goker.All()[:10]}
	seq := RunTableIV(cfg)
	cfg.Parallel = 4
	par := RunTableIV(cfg)
	if seq.String() != par.String() {
		t.Fatalf("parallel campaign diverged from sequential:\n%s\n----\n%s", seq, par)
	}
}
