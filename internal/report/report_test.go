package report

import (
	"strings"
	"testing"

	"goat/internal/cover"
	"goat/internal/cu"
	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/gtree"
	"goat/internal/sim"
)

// leakRun produces a deterministic leaking execution of moby_33293.
func leakRun(t *testing.T) (*sim.Result, *gtree.Tree) {
	t.Helper()
	k, ok := goker.ByID("moby_33293")
	if !ok {
		t.Fatal("kernel missing")
	}
	r := goker.Run(k, sim.Options{Seed: 1, PreemptProb: -1})
	if r.Outcome != sim.OutcomeLeak {
		t.Fatalf("outcome = %v, want PDL", r.Outcome)
	}
	tree, err := gtree.Build(r.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return r, tree
}

func TestInterleavingColumns(t *testing.T) {
	r, tree := leakRun(t)
	s := Interleaving(r.Trace, tree, 6)
	if !strings.Contains(s, "g1 main") || !strings.Contains(s, "collector") {
		t.Fatalf("interleaving header wrong:\n%s", s)
	}
	if !strings.Contains(s, "blocked:chan-send") {
		t.Fatalf("interleaving missing the blocking event:\n%s", s)
	}
	// Column discipline: the collector's events must be indented.
	var sawIndented bool
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, " ") && strings.Contains(line, "blocked") {
			sawIndented = true
		}
	}
	if !sawIndented {
		t.Fatalf("second goroutine's events not in its own column:\n%s", s)
	}
}

func TestInterleavingTruncatesColumns(t *testing.T) {
	r := sim.Run(sim.Options{PreemptProb: -1}, func(g *sim.G) {
		for i := 0; i < 8; i++ {
			g.Go("w", func(c *sim.G) {})
		}
		for i := 0; i < 8; i++ {
			g.Yield()
		}
	})
	tree, err := gtree.Build(r.Trace)
	if err != nil {
		t.Fatal(err)
	}
	s := Interleaving(r.Trace, tree, 3)
	header := strings.SplitN(s, "\n", 2)[0]
	if strings.Count(header, "g") > 3 {
		t.Fatalf("maxCols not honored: %q", header)
	}
}

func TestDOTMarksLeaks(t *testing.T) {
	_, tree := leakRun(t)
	s := DOT(tree)
	for _, want := range []string{"digraph goroutines", "g1 ->", "LEAKED", "color=red"} {
		if !strings.Contains(s, want) {
			t.Fatalf("DOT missing %q:\n%s", want, s)
		}
	}
}

func TestDOTDashedSystemNodes(t *testing.T) {
	r := sim.Run(sim.Options{PreemptProb: -1}, func(g *sim.G) {
		g.GoSystem("tick", func(c *sim.G) {})
		g.Yield()
	})
	tree, err := gtree.Build(r.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(DOT(tree), "style=dashed") {
		t.Fatal("system node not dashed")
	}
}

func TestCoverageTable(t *testing.T) {
	r, _ := leakRun(t)
	m := cover.NewModel(nil)
	m.AddRun(r.Trace)
	s := CoverageTable(nil, m)
	for _, want := range []string{"CU", "overall coverage", "%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("coverage table missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "moby.go") {
		t.Fatalf("coverage table missing source attribution:\n%s", s)
	}
}

func TestCoverageTableWithStaticModel(t *testing.T) {
	static := cu.NewModel([]cu.CU{{File: "dead.go", Line: 99, Kind: cu.KindSend}})
	m := cover.NewModel(static)
	s := CoverageTable(static, m)
	if !strings.Contains(s, "dead.go:99") || !strings.Contains(s, "send") {
		t.Fatalf("static CU missing from table:\n%s", s)
	}
}

func TestDetectionReport(t *testing.T) {
	r, _ := leakRun(t)
	d := (detect.Goat{}).Detect(r)
	s := Detection(r, d)
	for _, want := range []string{"GoAT report", "PDL", "leaked goroutines", "goroutine tree", "interleaving"} {
		if !strings.Contains(s, want) {
			t.Fatalf("detection report missing %q:\n%s", want, s)
		}
	}
}

func TestTable3PerRunColumns(t *testing.T) {
	k, _ := goker.ByID("moby_28462")
	m := cover.NewModel(nil)
	for run := 0; run < 2; run++ {
		r := goker.Run(k, sim.Options{Seed: int64(run), Delays: 2})
		m.AddRun(r.Trace)
	}
	s := Table3(m)
	for _, want := range []string{"run#1", "run#2", "overall", "moby.go", "overall coverage"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table3 missing %q:\n%s", want, s)
		}
	}
	// A covered requirement must carry at least one Y mark.
	if !strings.Contains(s, "Y") {
		t.Fatalf("no coverage marks rendered:\n%s", s)
	}
}
