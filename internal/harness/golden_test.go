package harness_test

// Golden-file tests pin the exact text of the paper-facing renderers:
// Table IV, the campaign-health summary, and Table III. Each test runs
// its campaign twice and requires byte-identical output before comparing
// against the checked-in golden, so any map-iteration-order leak into a
// renderer fails loudly rather than flaking. Regenerate with
//
//	go test ./internal/harness -run Golden -update
import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/harness"
	"goat/internal/report"
	"goat/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func goldenCampaign() *harness.TableIV {
	ids := []string{"hugo_3251", "hugo_5379", "istio_16224"}
	var kernels []goker.Kernel
	for _, id := range ids {
		k, ok := goker.ByID(id)
		if !ok {
			panic("missing kernel " + id)
		}
		kernels = append(kernels, k)
	}
	return harness.RunTableIV(harness.Config{
		MaxExecs: 30,
		BaseSeed: 1,
		Tools: []harness.Spec{
			{Name: "builtin", Detector: detect.Builtin{}},
			{Name: "goleak", Detector: detect.Goleak{}},
			{Name: "goat-D0", Detector: detect.Goat{}, Delays: 0},
			{Name: "goat-D2", Detector: detect.Goat{}, Delays: 2},
		},
		Kernels: kernels,
	})
}

// TestTableIVGolden pins the Table IV text for a small deterministic
// campaign over three GoKer kernels and four tools.
func TestTableIVGolden(t *testing.T) {
	first := goldenCampaign().String()
	second := goldenCampaign().String()
	if first != second {
		t.Fatalf("Table IV rendering is nondeterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	checkGolden(t, "table_iv.golden", first)
}

// TestCampaignHealthGolden pins the degradation summary on a hand-built
// table with hung and errored cells, plus the healthy one-liner.
func TestCampaignHealthGolden(t *testing.T) {
	tab := &harness.TableIV{
		Tools: []string{"goat-D0", "goleak"},
		Rows: []harness.TableIVRow{
			{Bug: "etcd_6873", Cells: []harness.Cell{
				{Bug: "etcd_6873", Tool: "goat-D0", Found: true, MinExecs: 3, Wall: 40 * time.Millisecond},
				{Bug: "etcd_6873", Tool: "goleak", Status: harness.CellHung, Retries: 1, Wall: 60 * time.Second,
					Err:       "cell abandoned after watchdog timeout",
					FlightRec: "results/flightrec-etcd_6873-goleak-0.json"},
			}},
			{Bug: "moby_28462", Cells: []harness.Cell{
				{Bug: "moby_28462", Tool: "goat-D0", Status: harness.CellErr, Err: "panic: forced worker panic"},
				{Bug: "moby_28462", Tool: "goleak", Found: false, MinExecs: 1000, Wall: 800 * time.Millisecond},
			}},
		},
	}
	degraded := report.CampaignHealth(tab)
	if degraded != report.CampaignHealth(tab) {
		t.Fatal("CampaignHealth is nondeterministic")
	}
	healthy := report.CampaignHealth(&harness.TableIV{
		Tools: []string{"goat-D0"},
		Rows: []harness.TableIVRow{{Bug: "etcd_6873", Cells: []harness.Cell{
			{Bug: "etcd_6873", Tool: "goat-D0", Found: true},
		}}},
	})
	checkGolden(t, "campaign_health.golden", degraded+"\n"+healthy)
}

// goldenTable3 accumulates two seeded runs of moby_28462 into a coverage
// model and renders Table III.
func goldenTable3(t *testing.T) string {
	t.Helper()
	k, ok := goker.ByID("moby_28462")
	if !ok {
		t.Fatal("missing kernel moby_28462")
	}
	model := cover.NewModel(nil)
	for seed := int64(1); seed <= 2; seed++ {
		r := goker.Run(k, sim.Options{Seed: seed, Delays: 2})
		model.AddRun(r.Trace)
	}
	return report.Table3(model)
}

// TestTable3Golden pins the Table III text for two accumulated runs.
func TestTable3Golden(t *testing.T) {
	first := goldenTable3(t)
	second := goldenTable3(t)
	if first != second {
		t.Fatalf("Table III rendering is nondeterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	checkGolden(t, "table3.golden", first)
}
