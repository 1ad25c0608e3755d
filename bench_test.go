// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section IV). Each benchmark runs the corresponding
// experiment campaign and reports its headline numbers as custom metrics,
// so `go test -bench=. -benchmem` both times the harness and reproduces
// the results' shape. The goatbench command prints the full artifacts.
package goat_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"goat"
	"goat/internal/conc"
	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/engine"
	"goat/internal/fabric"
	"goat/internal/goker"
	"goat/internal/gtree"
	"goat/internal/harness"
	"goat/internal/hb"
	"goat/internal/ingest"
	"goat/internal/kernelgen"
	"goat/internal/profile"
	"goat/internal/sim"
	"goat/internal/systematic"
	"goat/internal/telemetry"
	"goat/internal/trace"
)

// benchBudget keeps bench iterations affordable; goatbench uses the
// paper's 1000.
const benchBudget = 200

// BenchmarkTable1 regenerates the requirement catalogue (Table I) — a
// pure rendering, benchmarked for completeness of the per-table index.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(cover.CatalogueString()) == 0 {
			b.Fatal("empty catalogue")
		}
	}
	b.ReportMetric(float64(len(cover.Catalogue())), "req-families")
}

// BenchmarkTable3 regenerates Table III: the CU/coverage table of
// listing 1 (moby_28462) accumulated over two executions.
func BenchmarkTable3(b *testing.B) {
	k, ok := goker.ByID("moby_28462")
	if !ok {
		b.Fatal("kernel missing")
	}
	var covered, total int
	for i := 0; i < b.N; i++ {
		model := cover.NewModel(nil)
		for run := 0; run < 2; run++ {
			r := goker.Run(k, sim.Options{Seed: int64(run), Delays: 2})
			st := model.AddRun(r.Trace)
			covered, total = st.Covered, st.Total
		}
	}
	b.ReportMetric(float64(covered), "covered")
	b.ReportMetric(float64(total), "requirements")
}

// BenchmarkTable4 regenerates the detector matrix (Table IV): 68 bugs ×
// 8 tool configurations, minimum executions to detection.
func BenchmarkTable4(b *testing.B) {
	var tab *harness.TableIV
	for i := 0; i < b.N; i++ {
		tab = harness.RunTableIV(harness.Config{MaxExecs: benchBudget})
	}
	counts := tab.DetectedCount()
	b.ReportMetric(float64(counts["goat-D2"]), "goat-D2-detected")
	b.ReportMetric(float64(counts["builtin"]), "builtin-detected")
	b.ReportMetric(float64(counts["goleak"]), "goleak-detected")
	b.ReportMetric(float64(counts["lockdl"]), "lockdl-detected")
}

// BenchmarkFigure2 regenerates the trials-to-detect histogram at D=0.
func BenchmarkFigure2(b *testing.B) {
	var fig *harness.Figure2
	for i := 0; i < b.N; i++ {
		tab := harness.RunTableIV(harness.Config{
			MaxExecs: benchBudget,
			Tools: []harness.Spec{{
				Name: "goat-D0", Detector: detect.Goat{},
			}},
		})
		fig = harness.RunFigure2(tab, "goat-D0")
	}
	b.ReportMetric(float64(fig.Buckets[0]), "trial1-bugs")
	b.ReportMetric(float64(fig.Buckets[1]+fig.Buckets[2]+fig.Buckets[3]), "multi-trial-bugs")
}

// BenchmarkFigure4 regenerates the per-tool detection histogram.
func BenchmarkFigure4(b *testing.B) {
	var fig *harness.Figure4
	for i := 0; i < b.N; i++ {
		tab := harness.RunTableIV(harness.Config{MaxExecs: benchBudget})
		fig = harness.RunFigure4(tab)
	}
	b.ReportMetric(float64(fig.Detected("goat-D0")), "goat-D0")
	b.ReportMetric(float64(fig.Detected("goleak")), "goleak")
}

// BenchmarkFigure5 regenerates the iteration-interval distribution.
func BenchmarkFigure5(b *testing.B) {
	var fig *harness.Figure5
	for i := 0; i < b.N; i++ {
		tab := harness.RunTableIV(harness.Config{MaxExecs: benchBudget})
		fig = harness.RunFigure5(tab)
	}
	// Share of bugs detected in a single execution by GoAT at D=2.
	b.ReportMetric(fig.Percent["goat-D2"][0], "goatD2-trial1-%")
}

// BenchmarkFigure6 regenerates both coverage case studies (Fig. 6a/6b).
func BenchmarkFigure6(b *testing.B) {
	ds := []int{0, 1, 2, 4}
	var final float64
	for i := 0; i < b.N; i++ {
		for _, bug := range []string{"etcd_7443", "kubernetes_11298"} {
			series, err := harness.RunFigure6(bug, 50, ds, 0)
			if err != nil {
				b.Fatal(err)
			}
			final = series[2][49].Percent
		}
	}
	b.ReportMetric(final, "final-D2-coverage-%")
}

// --- micro-benchmarks of the substrate ---

// BenchmarkSchedulerSpawnJoin measures raw virtual-runtime throughput.
func BenchmarkSchedulerSpawnJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := goat.Run(goat.Options{NoTrace: true, PreemptProb: -1}, func(g *goat.G) {
			wg := conc.NewWaitGroup(g)
			for j := 0; j < 10; j++ {
				wg.Add(g, 1)
				g.Go("w", func(c *goat.G) { wg.Done(c) })
			}
			wg.Wait(g)
		})
		if r.Outcome != goat.OutcomeOK {
			b.Fatal(r.Outcome)
		}
	}
}

// BenchmarkChannelPingPong measures rendezvous cost with tracing on.
func BenchmarkChannelPingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		goat.Run(goat.Options{PreemptProb: -1}, func(g *goat.G) {
			ping := conc.NewChan[int](g, 0)
			pong := conc.NewChan[int](g, 0)
			g.Go("peer", func(c *goat.G) {
				for j := 0; j < 50; j++ {
					v, _ := ping.Recv(c)
					pong.Send(c, v+1)
				}
			})
			for j := 0; j < 50; j++ {
				ping.Send(g, j)
				pong.Recv(g)
			}
		})
	}
}

// BenchmarkSelectTwoReady measures select dispatch with both cases ready.
func BenchmarkSelectTwoReady(b *testing.B) {
	for i := 0; i < b.N; i++ {
		goat.Run(goat.Options{NoTrace: true, PreemptProb: -1}, func(g *goat.G) {
			x := conc.NewChan[int](g, 1)
			y := conc.NewChan[int](g, 1)
			for j := 0; j < 50; j++ {
				x.TrySend(g, j)
				y.TrySend(g, j)
				conc.Select(g, []conc.Case{conc.CaseRecv(x), conc.CaseRecv(y)}, false)
				conc.Select(g, []conc.Case{conc.CaseRecv(x), conc.CaseRecv(y)}, true)
			}
		})
	}
}

// BenchmarkCampaignCellStreaming runs a Table IV-style campaign cell (one
// rare kernel under the GoAT detector for a fixed execution budget)
// through the engine: executions run trace-free with the online GoAT
// detector attached as an event sink. Reported with -benchmem so the
// guard pins both ns/op and allocs/op.
func BenchmarkCampaignCellStreaming(b *testing.B) {
	k, ok := goker.ByID("kubernetes_6632")
	if !ok {
		b.Fatal("kernel missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine.Run(context.Background(), engine.Config{
			Prog: k.Main,
			Plan: func(i int, _ *engine.Feedback) sim.Options {
				return sim.Options{Seed: 1 + int64(i)}
			},
			Runs:        30,
			Detector:    detect.Goat{},
			StopOnFound: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Runs == 0 {
			b.Fatal("no runs executed")
		}
	}
}

// BenchmarkServiceCell times one service-soak execution cell: a leaky
// worker-pool service (one stranded goroutine per 128 requests) run
// trace-free with the windowed leak detector on the batched sink path —
// the unit of work the soak and service campaigns scale up.
func BenchmarkServiceCell(b *testing.B) {
	p := &kernelgen.ServiceProg{
		Shape: kernelgen.ShapeWorkerPool, Requests: 1024,
		Workers: 4, Pool: 2, Stages: 2, ChanCap: 4,
		LeakKind: kernelgen.LeakSendNoRecv, LeakEvery: 128,
	}
	det := detect.Leak{Window: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := det.NewStream()
		r := sim.Run(sim.Options{
			Seed: 1 + int64(i), MaxSteps: p.MinSteps(), NoTrace: true,
			Sinks: []trace.Sink{s},
		}, p.Main())
		if d := s.Finish(r); !d.Found {
			b.Fatalf("planted leak not reported: %s", d.Detail)
		}
	}
	b.ReportMetric(float64(p.Requests)*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}

// benchTelemetryOverhead is BenchmarkCampaignCellStreaming with the
// telemetry registry in a chosen state, for the on-vs-off overhead
// guard: the enabled run carries the instrumented scheduler, the engine
// wall clocks, and a telemetry.Sink in the event chain, and must stay
// within a few percent of the disabled run.
func benchTelemetryOverhead(b *testing.B, enabled bool) {
	k, ok := goker.ByID("kubernetes_6632")
	if !ok {
		b.Fatal("kernel missing")
	}
	if enabled {
		telemetry.Enable()
		b.Cleanup(func() {
			telemetry.Disable()
			telemetry.Default.Reset()
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine.Run(context.Background(), engine.Config{
			Prog: k.Main,
			Plan: func(i int, _ *engine.Feedback) sim.Options {
				return sim.Options{Seed: 1 + int64(i)}
			},
			Runs:        30,
			Detector:    detect.Goat{},
			StopOnFound: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Runs == 0 {
			b.Fatal("no runs executed")
		}
	}
}

// BenchmarkTelemetryOverheadOff is the streaming campaign cell with the
// registry disabled — the near-zero-cost baseline every instrumentation
// site must respect.
func BenchmarkTelemetryOverheadOff(b *testing.B) { benchTelemetryOverhead(b, false) }

// BenchmarkTelemetryOverheadOn is the same cell fully instrumented; the
// bench guard holds the On/Off pair to the ≤2% overhead budget.
func BenchmarkTelemetryOverheadOn(b *testing.B) { benchTelemetryOverhead(b, true) }

// BenchmarkDetectGoat measures detection cost over a leaking trace.
func BenchmarkDetectGoat(b *testing.B) {
	k, _ := goker.ByID("moby_33293")
	r := goker.Run(k, sim.Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := goat.Detect(r); !d.Found {
			b.Fatal("leak not detected")
		}
	}
}

// BenchmarkMetricSaturation compares GoAT's Req1–Req5 metric against the
// prior-work synchronization-pair metric on the same campaign: how many
// units each discovers over 40 iterations of the Fig. 6a case study.
func BenchmarkMetricSaturation(b *testing.B) {
	k, _ := goker.ByID("etcd_7443")
	var reqUnits, pairUnits int
	for i := 0; i < b.N; i++ {
		req := cover.NewModel(nil)
		pairs := cover.NewPairModel()
		for seed := int64(0); seed < 40; seed++ {
			r := goker.Run(k, sim.Options{Seed: seed, Delays: 2})
			tree, err := gtree.Build(r.Trace)
			if err != nil {
				b.Fatal(err)
			}
			req.AddRun(r.Trace)
			pairs.AddRun(r.Trace, tree)
		}
		reqUnits, pairUnits = req.Total(), pairs.Distinct()
	}
	b.ReportMetric(float64(reqUnits), "req-units")
	b.ReportMetric(float64(pairUnits), "syncpair-units")
}

// systematicBenchKernels is a fixed mix of kernels whose bugs need the
// yield search (plus two that fall to the base schedule), so the
// explorer benchmarks exercise both the sweep and the random phase. The
// last two need more than two yields: at the D=2 bound below no search
// finds them, so the mix also measures what exhausting the space costs —
// Explore samples to its run budget, DPOR drains its backtrack tree and
// stops (the "executions" metric is the claim benchguard tracks).
var systematicBenchKernels = []string{
	"moby_28462", "serving_2137", "moby_30408",
	"etcd_7443", "cockroach_10214", "kubernetes_11298",
	"kubernetes_6632",
}

func benchSystematic(b *testing.B, mode string) {
	var kernels []goker.Kernel
	for _, id := range systematicBenchKernels {
		k, ok := goker.ByID(id)
		if !ok {
			b.Fatalf("kernel %s missing", id)
		}
		kernels = append(kernels, k)
	}
	execs, found := 0, 0
	for i := 0; i < b.N; i++ {
		execs, found = 0, 0
		for _, k := range kernels {
			cfg := systematic.Config{Seed: 1, MaxYields: 2, MaxRuns: 2000}
			switch mode {
			case "dpor":
				f, st := systematic.ExploreDPOR(k.Main, cfg)
				execs += st.Runs
				if f != nil {
					found++
				}
			default:
				f := systematic.Explore(k.Main, cfg)
				if f != nil {
					execs += f.Runs
					found++
				} else {
					execs += cfg.MaxRuns
				}
			}
		}
	}
	b.ReportMetric(float64(execs), "executions")
	b.ReportMetric(float64(found), "bugs-found")
}

// BenchmarkSystematicExplore is the exhaustive delay-bounded search over
// the fixed kernel mix.
func BenchmarkSystematicExplore(b *testing.B) { benchSystematic(b, "explore") }

// BenchmarkSystematicExploreDPOR is the dependency-driven search over
// the same mix: backtrack points seeded only at racing Must-HB windows,
// sleep-set footprint memo suppressing equivalent interleavings — same
// findings, and far fewer executions.
func BenchmarkSystematicExploreDPOR(b *testing.B) { benchSystematic(b, "dpor") }

// BenchmarkHBEngine measures the streaming happens-before engine's
// throughput over a buffered leaking trace.
func BenchmarkHBEngine(b *testing.B) {
	k, _ := goker.ByID("etcd_7443")
	r := goker.Run(k, sim.Options{Seed: 1, Delays: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := hb.FromTrace(r.Trace, hb.Full); g.Events == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkDPORRacingPairs measures one DPOR expansion's dependence
// analysis: the Must-mode per-event clocks of kubernetes_11298's seed-1
// base schedule (the run every DPOR search of that kernel starts from)
// and its racing pairs.
func BenchmarkDPORRacingPairs(b *testing.B) {
	k, _ := goker.ByID("kubernetes_11298")
	r := systematic.Finding{Seed: 1}.Replay(k.Main)
	var pairs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs = len(hb.BuildDeps(r.Trace, hb.Must).RacingPairs())
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// BenchmarkPredictMine measures mining one passing D=0 trace for
// predicted hazards (the cmd/goat -predict path).
func BenchmarkPredictMine(b *testing.B) {
	k, _ := goker.ByID("cockroach_10214")
	r := goker.Run(k, sim.Options{Seed: 1})
	if r.Outcome != sim.OutcomeOK {
		b.Fatal("expected a passing execution")
	}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(detect.Predict(r.Trace))
	}
	b.ReportMetric(float64(n), "hazards")
}

// BenchmarkCheckpointJournalAppend measures the fabric coordinator's
// per-cell checkpoint cost: one unbuffered JSON append per merged cell.
func BenchmarkCheckpointJournalAppend(b *testing.B) {
	job, err := fabric.NewJob(harness.Config{MaxExecs: 3})
	if err != nil {
		b.Fatal(err)
	}
	j, _, err := fabric.OpenJournal(b.TempDir()+"/journal.jsonl", job.Fingerprint(), job.Cells())
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	cell := harness.Cell{Bug: "moby_28462", Tool: "goat-D2", Found: true, MinExecs: 3, Verdict: "PDL-2"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(i%job.Cells(), cell); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkCheckpointJournalReplay measures coordinator restart: reopening
// a full-campaign journal and readmitting every checkpointed cell.
func BenchmarkCheckpointJournalReplay(b *testing.B) {
	job, err := fabric.NewJob(harness.Config{MaxExecs: 3})
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/journal.jsonl"
	j, _, err := fabric.OpenJournal(path, job.Fingerprint(), job.Cells())
	if err != nil {
		b.Fatal(err)
	}
	cell := harness.Cell{Bug: "moby_28462", Tool: "goat-D2", Found: true, MinExecs: 3, Verdict: "PDL-2"}
	for seq := 0; seq < job.Cells(); seq++ {
		if err := j.Append(seq, cell); err != nil {
			b.Fatal(err)
		}
	}
	j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, done, err := fabric.OpenJournal(path, job.Fingerprint(), job.Cells())
		if err != nil {
			b.Fatal(err)
		}
		if len(done) != job.Cells() {
			b.Fatalf("replayed %d cells, want %d", len(done), job.Cells())
		}
		j.Close()
	}
	b.ReportMetric(float64(job.Cells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkIngestParse measures native runtime/trace ingestion end to
// end — wire parse, goroutine attribution, resource correlation, ECT
// emission — on the checked-in leaky-pool capture.
func BenchmarkIngestParse(b *testing.B) {
	data, err := os.ReadFile("internal/ingest/testdata/leakypool.trace")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := ingest.Parse(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if run.Trace.Len() == 0 {
			b.Fatal("empty conversion")
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(data))/b.Elapsed().Seconds()/1e6, "MB/s")
}

// BenchmarkProfileBuild folds a detecting run's ECT into the full
// profile set (block, mutex, goroutine) — the per-scrape cost of the
// live /profile endpoints and the -profile command's hot loop.
func BenchmarkProfileBuild(b *testing.B) {
	k, _ := goker.ByID("moby_33293")
	r := goker.Run(k, sim.Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := profile.Build(r.Trace, profile.Options{})
		if len(set.Block.Samples) == 0 {
			b.Fatal("empty block profile")
		}
	}
}

// BenchmarkServiceCellTimeline is BenchmarkServiceCell with the request
// timeline and the latency sink on — the fully profiled service cell.
// The bench guard holds the pair to the profiling plane's ≤2% overhead
// budget.
func BenchmarkServiceCellTimeline(b *testing.B) {
	p := &kernelgen.ServiceProg{
		Shape: kernelgen.ShapeWorkerPool, Requests: 1024,
		Workers: 4, Pool: 2, Stages: 2, ChanCap: 4,
		LeakKind: kernelgen.LeakSendNoRecv, LeakEvery: 128,
		Timeline: true,
	}
	det := detect.Leak{Window: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := det.NewStream()
		lat := profile.NewLatencySink()
		r := sim.Run(sim.Options{
			Seed: 1 + int64(i), MaxSteps: p.MinSteps(), NoTrace: true,
			Sinks: []trace.Sink{s, lat},
		}, p.Main())
		if d := s.Finish(r); !d.Found {
			b.Fatalf("planted leak not reported: %s", d.Detail)
		}
		if lat.Count() != p.Requests {
			b.Fatalf("latency sink closed %d/%d requests", lat.Count(), p.Requests)
		}
	}
	b.ReportMetric(float64(p.Requests)*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}
