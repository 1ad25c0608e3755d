// DPOR equivalence campaign: the harness-level rendering of the
// systematic package's core contract — ExploreDPOR agrees with the
// Explore oracle on every kernel while spending fewer executions.
// goatbench -exp dpor prints the table; CI runs it on a small kernel
// matrix as a smoke gate.
package harness

import (
	"fmt"
	"strings"

	"goat/internal/detect"
	"goat/internal/goker"
	"goat/internal/systematic"
)

// DPORRow is one kernel's Explore-vs-DPOR comparison.
type DPORRow struct {
	ID       string
	Explore  *systematic.Finding
	DPOR     *systematic.Finding
	Stats    systematic.DPORStats
	Mismatch string // empty when the two searches agree
}

// DPORCompare is the campaign result.
type DPORCompare struct {
	Rows []DPORRow
	// Suite-wide executions spent by each search.
	ExploreRuns, DPORRuns int
}

// RunDPORCompare runs the Explore oracle and ExploreDPOR on every kernel
// (nil selects the full registry) and records any disagreement. Two
// findings agree when both miss, or both hit with the same verdict and
// either the same yield placement or a placement that replays to the
// same verdict.
func RunDPORCompare(kernels []goker.Kernel, cfg systematic.Config) *DPORCompare {
	if kernels == nil {
		kernels = goker.All()
	}
	out := &DPORCompare{}
	for _, k := range kernels {
		row := DPORRow{ID: k.ID}
		row.Explore = systematic.Explore(k.Main, cfg)
		row.DPOR, row.Stats = systematic.ExploreDPOR(k.Main, cfg)
		row.Mismatch = findingDisagreement(k, row.Explore, row.DPOR)
		if row.Explore != nil {
			out.ExploreRuns += row.Explore.Runs
		}
		if row.DPOR != nil {
			out.DPORRuns += row.DPOR.Runs
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// findingDisagreement classifies how DPOR's finding b diverges from the
// Explore reference a, returning "" when they are equivalent.
func findingDisagreement(k goker.Kernel, a, b *systematic.Finding) string {
	switch {
	case (a == nil) != (b == nil):
		return fmt.Sprintf("dpor found=%v, explore found=%v", b != nil, a != nil)
	case a == nil:
		return ""
	case a.Detection.Verdict != b.Detection.Verdict:
		return fmt.Sprintf("dpor verdict %q, explore %q", b.Detection.Verdict, a.Detection.Verdict)
	case fmt.Sprint(a.Yields) == fmt.Sprint(b.Yields) && len(b.Wakes) == 0:
		return ""
	}
	// Different placement: equivalent only if it independently replays.
	d := (detect.Goat{}).Detect(b.Replay(k.Main))
	if !d.Found || d.Verdict != a.Detection.Verdict {
		return fmt.Sprintf("dpor placement %q does not replay explore's %q verdict", b.DecisionString(), a.Detection.Verdict)
	}
	return ""
}

// Mismatches returns the rows where the searches disagree.
func (c *DPORCompare) Mismatches() []DPORRow {
	var out []DPORRow
	for _, r := range c.Rows {
		if r.Mismatch != "" {
			out = append(out, r)
		}
	}
	return out
}

// String renders the comparison table.
func (c *DPORCompare) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-10s %8s %8s  %s\n", "bug", "verdict", "explore", "dpor", "agreement")
	runsOf := func(f *systematic.Finding) string {
		if f == nil {
			return "-"
		}
		return fmt.Sprint(f.Runs)
	}
	for _, r := range c.Rows {
		verdict, agree := "-", "agree"
		if r.Explore != nil {
			verdict = r.Explore.Detection.Verdict
		}
		if r.Mismatch != "" {
			agree = "MISMATCH: " + r.Mismatch
		}
		fmt.Fprintf(&b, "%-24s %-10s %8s %8s  %s\n",
			r.ID, verdict, runsOf(r.Explore), runsOf(r.DPOR), agree)
	}
	fmt.Fprintf(&b, "%-24s %-10s %8d %8d  %d mismatch(es)\n",
		"TOTAL (found)", "", c.ExploreRuns, c.DPORRuns, len(c.Mismatches()))
	return b.String()
}
