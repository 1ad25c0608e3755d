// Package report renders the artifacts GoAT produces when a bug is
// detected: the executed interleaving (the paper's listing-1 style
// side-by-side view), the goroutine tree (text and DOT), the Table III
// style concurrency-usage/coverage table, and the overall detection
// report.
package report

import (
	"fmt"
	"sort"
	"strings"

	"goat/internal/cover"
	"goat/internal/cu"
	"goat/internal/detect"
	"goat/internal/gtree"
	"goat/internal/sim"
	"goat/internal/trace"
)

// Interleaving renders the executed schedule of tr as one column per
// application goroutine of its tree t, one row per event — the
// visualization GoAT attaches to bug reports. Only concurrency events
// are shown; lifecycle noise is elided. Wide programs are truncated to
// maxCols goroutines.
func Interleaving(tr *trace.Trace, t *gtree.Tree, maxCols int) string {
	nodes := t.AppNodes()
	if maxCols > 0 && len(nodes) > maxCols {
		nodes = nodes[:maxCols]
	}
	const colWidth = 26
	var b strings.Builder
	colOf := map[trace.GoID]int{}
	for i, n := range nodes {
		colOf[n.ID] = i
		fmt.Fprintf(&b, "%-*s", colWidth, fmt.Sprintf("g%d %s", n.ID, n.Name))
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", colWidth*len(nodes)))
	b.WriteString("\n")
	for _, e := range tr.Events {
		col, ok := colOf[e.G]
		if !ok || !keepInInterleaving(e.Type) {
			continue
		}
		b.WriteString(strings.Repeat(" ", colWidth*col))
		fmt.Fprintf(&b, "%-*s\n", colWidth, eventLabel(e))
	}
	return b.String()
}

func keepInInterleaving(t trace.Type) bool {
	switch t {
	case trace.EvGoStart, trace.EvGoUnblock, trace.EvGoPreempt, trace.EvGoSched:
		return false
	default:
		return t.Valid()
	}
}

func eventLabel(e trace.Event) string {
	switch e.Type {
	case trace.EvGoBlock:
		return fmt.Sprintf("[blocked:%s]", e.BlockReason())
	case trace.EvGoCreate:
		return fmt.Sprintf("go %s", e.Str)
	case trace.EvGoEnd:
		return "return"
	case trace.EvGoPanic:
		return "panic"
	case trace.EvSelect:
		if e.Aux < 0 {
			return "select->default"
		}
		return fmt.Sprintf("select->case%d", e.Aux)
	default:
		s := strings.ToLower(e.Type.String())
		if e.Line > 0 {
			s += fmt.Sprintf(" @%d", e.Line)
		}
		if e.Blocked {
			s += "*"
		}
		return s
	}
}

// DOT renders the goroutine tree in Graphviz format, coloring leaked
// goroutines red (the paper's figure-3 visualization).
func DOT(t *gtree.Tree) string {
	var b strings.Builder
	b.WriteString("digraph goroutines {\n  node [shape=box, fontname=\"monospace\"];\n")
	var rec func(n *gtree.Node)
	rec = func(n *gtree.Node) {
		attrs := ""
		label := fmt.Sprintf("g%d %s", n.ID, n.Name)
		if n.System {
			attrs = ", style=dashed"
		} else if !n.Ended() {
			last := n.LastEvent()
			if last.Type == trace.EvGoBlock {
				label += fmt.Sprintf("\\nLEAKED blocked:%s @%s:%d", last.BlockReason(), last.File, last.Line)
			} else {
				label += "\\nLEAKED"
			}
			attrs = ", color=red, fontcolor=red"
		}
		fmt.Fprintf(&b, "  g%d [label=\"%s\"%s];\n", n.ID, label, attrs)
		for _, c := range n.Children {
			fmt.Fprintf(&b, "  g%d -> g%d;\n", n.ID, c.ID)
			rec(c)
		}
	}
	rec(t.Root)
	b.WriteString("}\n")
	return b.String()
}

// CoverageTable renders the paper's Table III: one row per concurrency
// usage, its requirements, and which are covered in the model.
func CoverageTable(static *cu.Model, m *cover.Model) string {
	covered := map[string][]cover.Requirement{}
	uncovered := map[string][]cover.Requirement{}
	for _, r := range m.Covered() {
		covered[r.CU.Loc()] = append(covered[r.CU.Loc()], r)
	}
	for _, r := range m.Uncovered() {
		uncovered[r.CU.Loc()] = append(uncovered[r.CU.Loc()], r)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %-44s %s\n", "CU", "Kind", "Covered requirements", "Uncovered")
	render := func(rs []cover.Requirement) string {
		var parts []string
		for _, r := range rs {
			p := r.Aspect.String()
			if r.Case != cover.NoCase {
				p = fmt.Sprintf("case%d-%s-%s", r.Case, r.Dir, r.Aspect)
			} else if r.Dir == "default" {
				p = "default"
			}
			parts = append(parts, p)
		}
		sort.Strings(parts)
		return strings.Join(dedup(parts), ",")
	}
	var locs []string
	if static != nil {
		for _, c := range static.All() {
			locs = append(locs, c.Loc())
		}
	}
	for loc := range covered {
		locs = append(locs, loc)
	}
	for loc := range uncovered {
		locs = append(locs, loc)
	}
	locs = dedup(locs)
	sort.Strings(locs)
	for _, loc := range locs {
		kind := ""
		if static != nil {
			if cus := byLoc(static, loc); len(cus) > 0 {
				var ks []string
				for _, c := range cus {
					ks = append(ks, c.Kind.String())
				}
				kind = strings.Join(dedup(ks), ",")
			}
		}
		if kind == "" {
			kind = kindFromReqs(append(covered[loc], uncovered[loc]...))
		}
		fmt.Fprintf(&b, "%-22s %-10s %-44s %s\n", loc, kind, render(covered[loc]), render(uncovered[loc]))
	}
	fmt.Fprintf(&b, "\noverall coverage: %d/%d (%.1f%%) over %d run(s)\n",
		m.CoveredCount(), m.Total(), m.Percent(), m.Runs())
	return b.String()
}

func byLoc(static *cu.Model, loc string) []cu.CU {
	var out []cu.CU
	for _, c := range static.All() {
		if c.Loc() == loc {
			out = append(out, c)
		}
	}
	return out
}

func kindFromReqs(rs []cover.Requirement) string {
	var ks []string
	for _, r := range rs {
		ks = append(ks, r.CU.Kind.String())
	}
	ks = dedup(ks)
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// Detection renders the full bug report for one execution: verdict,
// leaked goroutines, tree, and interleaving.
func Detection(r *sim.Result, d detect.Detection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== GoAT report: %s ===\n", d.Verdict)
	fmt.Fprintf(&b, "tool: %s\ndetail: %s\nseed: %d  steps: %d\n", d.Tool, d.Detail, r.Seed, r.Steps)
	if len(r.Leaked) > 0 {
		b.WriteString("\nleaked goroutines:\n")
		for _, l := range r.Leaked {
			fmt.Fprintf(&b, "  g%d %s (created %s:%d) — %s", l.ID, l.Name, l.CreateFile, l.CreateLine, l.State)
			if l.State == sim.StateBlocked {
				fmt.Fprintf(&b, " on %s", l.Reason)
			}
			b.WriteString("\n")
		}
	}
	if r.Trace != nil {
		if tree, err := gtree.Build(r.Trace); err == nil {
			b.WriteString("\ngoroutine tree:\n")
			b.WriteString(tree.String())
			b.WriteString("\nexecuted interleaving (concurrency events):\n")
			b.WriteString(Interleaving(r.Trace, tree, 6))
		}
	}
	return b.String()
}
