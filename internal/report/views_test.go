package report

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goat/internal/conc"
	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/gtree"
	"goat/internal/ingest"
	"goat/internal/sim"
	"goat/internal/trace"
)

// systemProg nests application goroutines beside, under and above
// runtime-internal ones: a system watchdog spawns a system timer and an
// app-shaped child (not application-level, its parent is system), and
// seven workers contend on a mutex and leave three senders stranded. Its
// creation sites are recorded in views.golden, so it stays at the top of
// this file where edits below cannot shift its line numbers.
func systemProg(g *sim.G) {
	mu := conc.NewMutex(g)
	ch := conc.NewChan[int](g, 0)
	g.GoSystem("watchdog", func(s *sim.G) {
		s.GoSystem("timer", func(t *sim.G) { t.Yield() })
		s.Go("adopted", func(c *sim.G) { ch.Recv(c) })
		s.Yield()
	})
	for i := 0; i < 7; i++ {
		g.Go("worker", func(c *sim.G) {
			mu.Lock(c)
			c.Yield()
			mu.Unlock(c)
			if i%2 == 0 {
				ch.Send(c, i)
			}
		})
	}
	conc.After(g, 1_000_000)
	for i := 0; i < 8; i++ {
		g.Yield()
	}
}

var update = flag.Bool("update", false, "rewrite testdata/views.golden")

// TestViewsGolden pins every view built from the goroutine tree — the
// text tree, Procedure 1, the blocked-at-end census, DOT, the detection
// report with its interleaving, and both coverage folds — over GoKer
// runs, a program with nested system goroutines and a native capture.
// Regenerate with `go test ./internal/report -run TestViewsGolden -update`
// only for a deliberate change of output.
func TestViewsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		id           string
		seed, delays int
	}{
		{"moby_28462", 4, 2},
		{"moby_33293", 1, 0},
		{"etcd_7443", 3, 2},
		{"kubernetes_11298", 7, 3},
		{"cockroach_10214", 1, 1},
	} {
		k, ok := goker.ByID(c.id)
		if !ok {
			t.Fatalf("kernel %s missing", c.id)
		}
		r := goker.Run(k, sim.Options{Seed: int64(c.seed), Delays: c.delays})
		writeViews(t, &b, fmt.Sprintf("%s seed=%d D=%d", c.id, c.seed, c.delays), r)
	}
	writeViews(t, &b, "system goroutines seed=1", sim.Run(sim.Options{Seed: 1}, systemProg))

	// The capture's Result is built from its trace alone: the detectors
	// and every view here derive their verdicts from the ECT. Its paths
	// are trimmed so the golden does not name the recording checkout.
	run, err := ingest.ParseFile(filepath.Join("..", "ingest", "testdata", "leakypool.trace"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range run.Trace.Events {
		run.Trace.Events[i].File = trace.TrimPath(run.Trace.Events[i].File)
	}
	writeViews(t, &b, "leakypool capture", &sim.Result{Trace: run.Trace})

	got := b.String()
	golden := filepath.Join("testdata", "views.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("views changed.\n--- got\n%s--- want\n%s", got, want)
	}
}

func writeViews(t *testing.T, b *strings.Builder, title string, r *sim.Result) {
	t.Helper()
	tree, err := gtree.Build(r.Trace)
	if err != nil {
		t.Fatalf("%s: %v", title, err)
	}
	fmt.Fprintf(b, "=== %s ===\n--- tree\n%s", title, tree.String())
	v, leaked := tree.DeadlockCheck()
	fmt.Fprintf(b, "--- deadlock check: %s%s\n", v, nodeList(leaked))
	fmt.Fprintf(b, "--- blocked at end:%s\n", nodeList(tree.BlockedAtEnd()))
	fmt.Fprintf(b, "--- dot\n%s", DOT(tree))
	fmt.Fprintf(b, "--- detection\n%s", Detection(r, detect.Goat{}.Detect(r)))

	m := cover.NewModel(nil)
	st := m.AddRun(r.Trace)
	fmt.Fprintf(b, "--- coverage: run %d total %d covered %d (%.1f%%) new %d\n",
		st.Run, st.Total, st.Covered, st.Percent, st.NewCovered)
	for _, req := range m.Covered() {
		fmt.Fprintf(b, "  %s\n", req.Key())
	}
	pm := cover.NewPairModel()
	n := pm.AddRun(r.Trace, tree)
	fmt.Fprintf(b, "--- sync pairs: %d new\n", n)
	for _, p := range pm.Pairs() {
		fmt.Fprintf(b, "  %s\n", p)
	}
	b.WriteString("\n")
}

func nodeList(ns []*gtree.Node) string {
	var s string
	for _, n := range ns {
		s += fmt.Sprintf(" g%d:%s", n.ID, n.Name)
	}
	return s
}
