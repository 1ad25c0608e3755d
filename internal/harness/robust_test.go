package harness_test

// External test package: exercises the hardened harness end-to-end,
// including the report-layer campaign-health rendering (package report
// imports harness, so these tests cannot live inside package harness).

import (
	"context"
	"strings"
	"testing"
	"time"

	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/harness"
	"goat/internal/report"
	"goat/internal/sim"
)

// hangKernel blocks the host forever: it parks on a *real* Go channel the
// virtual runtime knows nothing about, so the scheduler's dispatch never
// returns — the exact failure mode the paper handles with its 30-second
// watchdog and manual re-runs.
func hangKernel() goker.Kernel {
	return goker.Kernel{
		ID: "synthetic_hang", Project: "synthetic", Expect: "GDL",
		Description: "host-level hang: blocks on a native channel outside the virtual runtime",
		Main: func(g *sim.G) {
			block := make(chan struct{})
			<-block
		},
	}
}

// panickyDetector panics while evaluating one specific bug — a worker
// panic in the middle of a campaign cell (the detector runs inside the
// cell worker, exactly where an unrecovered panic used to kill the whole
// process in Parallel mode).
type panickyDetector struct {
	inner detect.Detector
	bug   string
}

func (p panickyDetector) Name() string { return "panicky" }

// Detect panics only for the chosen kernel. Detectors see just the
// Result, which carries no bug ID, so the test arranges for that kernel
// to be the only one with a goroutine named after the bug (panicKernel).
func (p panickyDetector) Detect(r *sim.Result) detect.Detection {
	for _, g := range r.Goroutines {
		if g.Name == p.bug {
			panic("forced worker panic for " + p.bug)
		}
	}
	return p.inner.Detect(r)
}

// panicKernel is a healthy, trivial kernel whose only distinguishing mark
// is a child goroutine named like the bug — the handle panickyDetector
// keys on.
func panicKernel(id string) goker.Kernel {
	return goker.Kernel{
		ID: id, Project: "synthetic", Expect: "PDL",
		Description: "healthy kernel whose cell is forced to panic in the detector",
		Main: func(g *sim.G) {
			g.Go(id, func(*sim.G) {})
		},
	}
}

// TestCampaignSurvivesHangAndPanic is the robustness acceptance test: a
// campaign over the full 68-kernel GoKer suite plus one kernel forced to
// hang the host and one cell forced to panic must complete end-to-end,
// mark exactly those cells failed, and still render Table IV and the
// figures.
func TestCampaignSurvivesHangAndPanic(t *testing.T) {
	kernels := append([]goker.Kernel{}, goker.GoKer()...)
	if len(kernels) != 68 {
		t.Fatalf("suite has %d kernels, want 68", len(kernels))
	}
	kernels = append(kernels, hangKernel(), panicKernel("synthetic_panic"))

	tools := []harness.Spec{
		{Name: "goat-D0", Detector: detect.Goat{}},
		{Name: "panicky", Detector: panickyDetector{inner: detect.Goat{}, bug: "synthetic_panic"}},
	}
	cfg := harness.Config{
		MaxExecs:   1,
		Tools:      tools,
		Kernels:    kernels,
		Parallel:   4,
		CellBudget: 250 * time.Millisecond,
		Retries:    1,
	}
	tab := harness.RunTableIV(cfg)

	if len(tab.Rows) != 70 {
		t.Fatalf("campaign produced %d rows, want 70", len(tab.Rows))
	}
	wantFailed := map[string]harness.CellStatus{
		"synthetic_hang/goat-D0":  harness.CellHung,
		"synthetic_hang/panicky":  harness.CellHung,
		"synthetic_panic/panicky": harness.CellErr,
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			key := c.Bug + "/" + c.Tool
			if want, ok := wantFailed[key]; ok {
				if c.Status != want {
					t.Errorf("cell %s status = %v, want %v (err: %s)", key, c.Status, want, c.Err)
				}
				if c.Found {
					t.Errorf("failed cell %s reported Found", key)
				}
				delete(wantFailed, key)
				continue
			}
			if c.Failed() {
				t.Errorf("unexpected failed cell %s: %v (%s)", key, c.Status, c.Err)
			}
		}
	}
	for key := range wantFailed {
		t.Errorf("cell %s did not fail as forced", key)
	}

	// The hung cells must have consumed their retry budget.
	for _, c := range tab.FailedCells() {
		if c.Status == harness.CellHung && c.Retries != 1 {
			t.Errorf("hung cell %s/%s retries = %d, want 1", c.Bug, c.Tool, c.Retries)
		}
	}

	// Table IV and every derived figure must still render, annotated.
	rendered := tab.String()
	if !strings.Contains(rendered, "HUNG!") || !strings.Contains(rendered, "ERR!") {
		t.Error("Table IV rendering lacks failure annotations")
	}
	if s := harness.RunFigure2(tab, "goat-D0").String(); s == "" {
		t.Error("Figure 2 failed to render on a degraded campaign")
	}
	if s := harness.RunFigure4(tab).String(); s == "" {
		t.Error("Figure 4 failed to render on a degraded campaign")
	}
	if s := harness.RunFigure5(tab).String(); s == "" {
		t.Error("Figure 5 failed to render on a degraded campaign")
	}

	health := report.CampaignHealth(tab)
	if !strings.Contains(health, "3/140 cells failed") {
		t.Errorf("campaign health summary wrong:\n%s", health)
	}
	for _, frag := range []string{"synthetic_hang", "synthetic_panic", "hung", "err"} {
		if !strings.Contains(health, frag) {
			t.Errorf("campaign health summary lacks %q:\n%s", frag, health)
		}
	}
}

// TestHealthyCampaignHealthLine checks the one-line summary of an intact
// campaign.
func TestHealthyCampaignHealthLine(t *testing.T) {
	k, _ := goker.ByID("moby_28462")
	tab := harness.RunTableIV(harness.Config{
		MaxExecs: 5,
		Tools:    []harness.Spec{{Name: "goat-D1", Detector: detect.Goat{}, Delays: 1}},
		Kernels:  []goker.Kernel{k},
	})
	health := report.CampaignHealth(tab)
	if !strings.Contains(health, "all 1 cells completed") {
		t.Fatalf("healthy campaign summary = %q", health)
	}
}

// TestTimeoutRunDoesNotCorruptCoverageTree is the OutcomeTimeout
// satellite: a hung (livelocked) kernel is cut off within MaxSteps,
// classified TO, and its trace still folds into the accumulated
// cross-run coverage model without corrupting it.
func TestTimeoutRunDoesNotCorruptCoverageTree(t *testing.T) {
	livelock := func(g *sim.G) {
		g.Go("ping", func(p *sim.G) {
			for {
				p.HandlerHere()
			}
		})
		for {
			g.HandlerHere()
		}
	}
	r := sim.Run(sim.Options{Seed: 1, MaxSteps: 300}, livelock)
	if r.Outcome != sim.OutcomeTimeout {
		t.Fatalf("livelock outcome = %v, want TO", r.Outcome)
	}

	model := cover.NewModel(nil)
	model.AddRun(r.Trace)

	// A healthy kernel folded in afterwards must keep the model sane.
	k, _ := goker.ByID("moby_28462")
	r2 := goker.Run(k, sim.Options{Seed: 2, Delays: 2})
	st := model.AddRun(r2.Trace)
	if model.Runs() != 2 {
		t.Fatalf("model runs = %d, want 2", model.Runs())
	}
	if st.Percent < 0 || st.Percent > 100 {
		t.Fatalf("coverage percent corrupted: %v", st.Percent)
	}
	if st.Total <= 0 || st.Covered <= 0 {
		t.Fatalf("coverage stats corrupted: %+v", st)
	}
}

// TestCanceledCampaignFlushesPartialTable: canceling the campaign context
// mid-table must stop evaluating, mark the remaining cells CANC!, and
// still render a fully-populated Table IV plus its health summary — the
// contract behind goat/goatbench's SIGINT handling.
func TestCanceledCampaignFlushesPartialTable(t *testing.T) {
	kernels := goker.GoKer()[:6]
	ctx, cancel := context.WithCancel(context.Background())
	var evaluated int
	cfg := harness.Config{
		MaxExecs: 2,
		Ctx:      ctx,
		Kernels:  kernels,
		Tools:    []harness.Spec{{Name: "goat-D0", Detector: detect.Goat{}}},
		OnCell: func(c harness.Cell) {
			evaluated++
			if evaluated == 2 {
				cancel()
			}
		},
	}
	tab := harness.RunTableIV(cfg)
	if len(tab.Rows) != 6 {
		t.Fatalf("partial table has %d rows, want all 6", len(tab.Rows))
	}
	var canceled, done int
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			switch c.Status {
			case harness.CellCanceled:
				canceled++
				if c.Err == "" {
					t.Errorf("canceled cell %s/%s carries no reason", c.Bug, c.Tool)
				}
			case harness.CellOK:
				done++
			default:
				t.Errorf("cell %s/%s status = %v", c.Bug, c.Tool, c.Status)
			}
		}
	}
	if done == 0 || canceled == 0 {
		t.Fatalf("cancellation split = %d done / %d canceled, want both non-zero", done, canceled)
	}
	if !strings.Contains(tab.String(), "CANC!") {
		t.Error("Table IV rendering lacks the CANC! annotation")
	}
	health := report.CampaignHealth(tab)
	if !strings.Contains(health, "cells failed") || !strings.Contains(health, "canceled") {
		t.Errorf("campaign health does not surface the cancellation:\n%s", health)
	}
}
