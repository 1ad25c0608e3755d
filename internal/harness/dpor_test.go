package harness

import (
	"strings"
	"testing"

	"goat/internal/goker"
	"goat/internal/systematic"
)

func TestRunDPORCompareAgreesOnMatrix(t *testing.T) {
	var kernels []goker.Kernel
	for _, id := range []string{"serving_2137", "etcd_7443", "cockroach_1055"} {
		k, ok := goker.ByID(id)
		if !ok {
			t.Fatalf("kernel %s missing", id)
		}
		kernels = append(kernels, k)
	}
	cmp := RunDPORCompare(kernels, systematic.Config{Seed: 1, MaxRuns: 400})
	if len(cmp.Rows) != len(kernels) {
		t.Fatalf("rows %d, want %d", len(cmp.Rows), len(kernels))
	}
	if mm := cmp.Mismatches(); len(mm) != 0 {
		t.Fatalf("searches disagree: %+v", mm)
	}
	if cmp.DPORRuns <= 0 || cmp.ExploreRuns < cmp.DPORRuns {
		t.Fatalf("implausible run totals: explore=%d dpor=%d",
			cmp.ExploreRuns, cmp.DPORRuns)
	}
	out := cmp.String()
	for _, want := range []string{"serving_2137", "agree", "TOTAL (found)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("table reports a mismatch:\n%s", out)
	}
}
