package fabric

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/harness"
	"goat/internal/report"
)

// suite69 is the paper's 68-kernel GoKer set plus the fuzzer-promoted
// minimal reproducer — the full evaluation suite.
func suite69(t *testing.T) []goker.Kernel {
	t.Helper()
	kernels := goker.GoKer()
	extra, ok := goker.ByID("fuzz_send_no_recv_min")
	if !ok {
		t.Fatal("fuzz_send_no_recv_min missing from the registry")
	}
	kernels = append(kernels, extra)
	if len(kernels) != 69 {
		t.Fatalf("suite holds %d kernels, want 69", len(kernels))
	}
	return kernels
}

// normalize strips the per-run noise (wall clocks, dump paths) that is
// legitimately different between a fabric campaign and a sequential one,
// leaving only verdict-bearing fields.
func normalize(t *harness.TableIV) *harness.TableIV {
	out := &harness.TableIV{Tools: append([]string(nil), t.Tools...)}
	for _, row := range t.Rows {
		r := harness.TableIVRow{Bug: row.Bug}
		for _, c := range row.Cells {
			c.Wall = 0
			c.FlightRec = ""
			r.Cells = append(r.Cells, c)
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// TestChaosEquivalence is the fabric's acceptance gate: a 69-kernel
// campaign distributed across workers that randomly crash and hang must
// merge into the bit-identical Table IV — and CampaignHealth cell set —
// the single-process harness produces.
func TestChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos equivalence gate is not a -short test")
	}
	kernels := suite69(t)
	tools := []harness.Spec{
		{Name: "goat-D0", Detector: detect.Goat{}},
		{Name: "goat-D2", Detector: detect.Goat{}, Delays: 2},
	}
	cfg := harness.Config{MaxExecs: 3, BaseSeed: 7, Kernels: kernels, Tools: tools}
	want := harness.RunTableIV(cfg)

	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Job:        job,
		LeaseTTL:   800 * time.Millisecond,
		Backoff:    20 * time.Millisecond,
		MaxAssigns: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Four worker slots. Each worker instance carries its own seeded chaos
	// stream: ~10% of leased units kill the worker outright, ~5% make it
	// overstay its lease and submit stale. Crashed workers are respawned by
	// the slot supervisor, like a process manager would.
	var crashes, hangs, respawns atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < 4; slot++ {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gen := 0; ; gen++ {
				rng := rand.New(rand.NewSource(int64(1000*slot + gen)))
				w := &Worker{
					Coord: srv.URL,
					Name:  fmt.Sprintf("w%d.%d", slot, gen),
					Poll:  10 * time.Millisecond,
					intercept: func(Unit) chaosAction {
						switch p := rng.Float64(); {
						case p < 0.10:
							crashes.Add(1)
							return chaosCrash
						case p < 0.15:
							hangs.Add(1)
							return chaosHang
						}
						return chaosRun
					},
				}
				err := w.Run(ctx)
				if err == nil {
					return
				}
				if err != errCrashed {
					t.Errorf("worker %s died abnormally: %v", w.Name, err)
					return
				}
				respawns.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		t.Fatalf("chaos campaign did not complete: %v", err)
	}
	t.Logf("chaos: %d crashes (%d respawns), %d hangs", crashes.Load(), respawns.Load(), hangs.Load())

	st := coord.Snapshot()
	if st.Done != job.Cells() || st.Poisoned != 0 {
		t.Fatalf("status after chaos = %+v, want %d done, 0 poisoned", st, job.Cells())
	}
	got := coord.Table()
	if got.String() != want.String() {
		t.Fatalf("chaos fabric table differs from sequential:\n--- fabric ---\n%s--- sequential ---\n%s", got, want)
	}
	if gh, wh := report.CampaignHealth(normalize(got)), report.CampaignHealth(normalize(want)); gh != wh {
		t.Fatalf("campaign health differs:\n--- fabric ---\n%s--- sequential ---\n%s", gh, wh)
	}
}

// TestCoordinatorRestartResumes kills a campaign after a handful of cells,
// restarts the coordinator on the same checkpoint journal, and requires
// (a) the journaled cells come back done without re-evaluation and (b) the
// finished table matches the sequential harness.
func TestCoordinatorRestartResumes(t *testing.T) {
	kernels := kernelsByID(t, "moby_28462", "etcd_6873", "grpc_660", "kubernetes_6632", "fuzz_send_no_recv_min")
	tools := []harness.Spec{
		{Name: "goat-D0", Detector: detect.Goat{}},
		{Name: "builtin", Detector: detect.Builtin{}},
	}
	cfg := harness.Config{MaxExecs: 4, BaseSeed: 11, Kernels: kernels, Tools: tools}
	want := harness.RunTableIV(cfg)
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	journal := t.TempDir() + "/campaign.jsonl"

	// Epoch 1: a lone worker completes 4 cells, then the chaos seam kills
	// it mid-campaign and the coordinator goes down with it.
	coord1, err := NewCoordinator(CoordinatorConfig{Job: job, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(coord1.Handler())
	var served atomic.Int64
	w1 := &Worker{
		Coord: srv1.URL, Name: "epoch1",
		intercept: func(Unit) chaosAction {
			if served.Add(1) > 4 {
				return chaosCrash
			}
			return chaosRun
		},
	}
	if err := w1.Run(context.Background()); err != errCrashed {
		t.Fatalf("epoch-1 worker exited %v, want crash", err)
	}
	srv1.Close()
	coord1.Close()

	// Epoch 2: a fresh coordinator on the same journal must readmit the 4
	// checkpointed cells as done...
	coord2, err := NewCoordinator(CoordinatorConfig{Job: job, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if st := coord2.Snapshot(); st.Done != 4 || st.Pending != job.Cells()-4 {
		t.Fatalf("resumed status = %+v, want 4 done / %d pending", st, job.Cells()-4)
	}
	// ...and hand out only the remainder: the epoch-2 worker must evaluate
	// exactly the missing cells, never a journaled one.
	srv2 := httptest.NewServer(coord2.Handler())
	defer srv2.Close()
	evaluated := map[int]bool{}
	w2 := &Worker{
		Coord: srv2.URL, Name: "epoch2",
		OnCell: func(u Unit, _ harness.Cell) { evaluated[u.Seq] = true },
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w2.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(evaluated) != job.Cells()-4 {
		t.Fatalf("epoch-2 worker evaluated %d cells, want exactly %d", len(evaluated), job.Cells()-4)
	}
	for seq := 0; seq < 4; seq++ {
		if evaluated[seq] {
			t.Fatalf("journaled cell %d was re-evaluated after restart", seq)
		}
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("campaign not done after epoch 2")
	}
	got := coord2.Table()
	if got.String() != want.String() {
		t.Fatalf("resumed table differs from sequential:\n--- fabric ---\n%s--- sequential ---\n%s", got, want)
	}
}
