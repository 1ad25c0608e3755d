// Package gtree builds the goroutine tree of an execution concurrency
// trace and runs the paper's deadlock-detection procedure over it.
//
// Nodes are goroutines; a directed edge parent→child means the child was
// created by a go statement the parent executed. The tree indexes the ECT
// rather than copying it: each node carries its creation site, its final
// event and its event count — the inputs of Procedure 1 (DeadlockCheck).
// Consumers that need a goroutine's events walk the trace in order.
package gtree

import (
	"fmt"
	"sort"
	"strings"

	"goat/internal/trace"
)

// Node is one goroutine of the tree.
type Node struct {
	ID         trace.GoID
	Name       string
	Parent     *Node // nil for the main goroutine and for orphans
	Children   []*Node
	CreateFile string // CU of the go statement that spawned it
	CreateLine int
	System     bool // runtime-internal (timer/watchdog) goroutine

	// Orphan marks a goroutine that pre-existed a window trace: its
	// creation was never observed, so it enters the tree as an extra
	// root, introduced by its own GoStart (sources without
	// trace.CapCreateObserved).
	Orphan bool

	key    string      // equivalence key, memoized at build time
	last   trace.Event // final executed event
	events int         // events the goroutine executed
}

// LastEvent returns the node's final executed event (zero Event if none).
func (n *Node) LastEvent() trace.Event { return n.last }

// Ended reports whether the goroutine reached its end state.
func (n *Node) Ended() bool { return n.LastEvent().Type == trace.EvGoEnd }

// Key is the cross-run equivalence key: two goroutines from different
// executions are equivalent iff their parents are equivalent and they were
// created at the same CU (file and line) — the paper's ≡ relation.
func (n *Node) Key() string { return n.key }

// AppLevel reports whether the goroutine belongs to the application: it is
// the main goroutine, or its ancestors are application-level and it is not
// a runtime-internal goroutine.
func (n *Node) AppLevel() bool {
	if n.System {
		return false
	}
	if n.Parent == nil {
		return true
	}
	return n.Parent.AppLevel()
}

// Tree is the goroutine tree of one execution.
type Tree struct {
	Root  *Node
	Nodes map[trace.GoID]*Node

	// Orphans are the extra roots of a window trace: goroutines whose
	// creation predates the window (empty for complete runs).
	Orphans []*Node
	// Windowed records that the trace came from a producer without
	// trace.CapCompleteRun, so "main never ended" is the normal state
	// of affairs rather than a global deadlock.
	Windowed bool
}

// Build constructs the goroutine tree from an ECT in one pass over its
// events. The main goroutine is GoID 1 and becomes the root. Under a
// producer without trace.CapCreateObserved (a window trace) a goroutine
// introduced by its own GoStart becomes an orphan root instead of an
// error (Aux=1 marks runtime-internal provenance, Str carries the root
// function name — the conventions the native ingester synthesizes).
func Build(tr *trace.Trace) (*Tree, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, trace.ErrEmpty
	}
	src := tr.SourceInfo()
	windowed := !src.Has(trace.CapCreateObserved)
	root := &Node{ID: 1, Name: "main", key: "main"}
	t := &Tree{Root: root, Nodes: map[trace.GoID]*Node{1: root}, Windowed: !src.Has(trace.CapCompleteRun)}
	for _, e := range tr.Events {
		n, ok := t.Nodes[e.G]
		if !ok {
			if !windowed || e.Type != trace.EvGoStart {
				return nil, fmt.Errorf("gtree: event by unknown goroutine g%d at ts %d", e.G, e.Ts)
			}
			n = &Node{
				ID:         e.G,
				Name:       e.Str,
				CreateFile: e.File,
				CreateLine: e.Line,
				System:     e.Aux == 1,
				Orphan:     true,
				key:        fmt.Sprintf("orphan/%s@%s:%d", e.Str, e.File, e.Line),
			}
			t.Orphans = append(t.Orphans, n)
			t.Nodes[e.G] = n
		}
		n.last = e
		n.events++
		if e.Type == trace.EvGoCreate {
			child := &Node{
				ID:         e.Peer,
				Name:       e.Str,
				Parent:     n,
				CreateFile: e.File,
				CreateLine: e.Line,
				System:     e.Aux == 1,
				key:        fmt.Sprintf("%s/%s:%d", n.key, e.File, e.Line),
			}
			n.Children = append(n.Children, child)
			t.Nodes[e.Peer] = child
		}
	}
	return t, nil
}

// Roots returns the tree's entry points: the main root followed by any
// orphan roots a window trace adopted.
func (t *Tree) Roots() []*Node {
	return append([]*Node{t.Root}, t.Orphans...)
}

// AppNodes returns the application-level goroutines in BFS order from the
// roots — the goroutines the paper's analyses operate on. Orphan roots
// of window traces are included after the main subtree.
func (t *Tree) AppNodes() []*Node {
	var out []*Node
	queue := t.Roots()
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if !n.AppLevel() {
			continue
		}
		out = append(out, n)
		queue = append(queue, n.Children...)
	}
	return out
}

// BlockedAtEnd returns the application-level goroutines whose final
// event is a block — the goroutines that were parked when the trace
// ended. For a complete run those are exactly the leaked goroutines;
// for a window trace they are the *candidates* the stranded-goroutine
// analysis (internal/ingest) filters by provenance and activity.
func (t *Tree) BlockedAtEnd() []*Node {
	var out []*Node
	for _, n := range t.AppNodes() {
		if n.LastEvent().Type == trace.EvGoBlock {
			out = append(out, n)
		}
	}
	return out
}

// Verdict is the result of DeadlockCheck.
type Verdict uint8

const (
	// Pass means every application goroutine reached its end state.
	Pass Verdict = iota
	// GlobalDeadlock means the main goroutine itself never ended.
	GlobalDeadlock
	// PartialDeadlock means main ended but at least one descendant leaked.
	PartialDeadlock
)

var verdictNames = [...]string{"Pass", "Global Deadlock", "Partial Deadlock (leak)"}

// String returns the verdict name.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// DeadlockCheck is the paper's Procedure 1: a BFS over the application
// goroutine tree checking final events. The main goroutine must have ended;
// every descendant must have GoEnd as its final event. It returns the
// verdict together with every leaked goroutine (the paper's procedure
// returns on the first, but reports want all of them).
//
// On a windowed trace (producer without CapCompleteRun) "main never
// ended" is the expected state, not a global deadlock; the check
// degrades to the blocked-at-window-end census over application
// goroutines, mirroring GoatStream's PDL-n verdict.
func (t *Tree) DeadlockCheck() (Verdict, []*Node) {
	if t.Windowed {
		if blocked := t.BlockedAtEnd(); len(blocked) > 0 {
			return PartialDeadlock, blocked
		}
		return Pass, nil
	}
	if !t.Root.Ended() {
		return GlobalDeadlock, []*Node{t.Root}
	}
	var leaked []*Node
	queue := append([]*Node{}, t.Root.Children...)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !cur.AppLevel() {
			continue
		}
		if !cur.Ended() {
			leaked = append(leaked, cur)
		}
		queue = append(queue, cur.Children...)
	}
	if len(leaked) > 0 {
		return PartialDeadlock, leaked
	}
	return Pass, nil
}

// String renders the tree in a compact indented form (the paper's
// goroutine-tree visualization, text flavor).
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		tag := ""
		if n.System {
			tag = " [system]"
		} else if !n.Ended() {
			last := n.LastEvent()
			if last.Type == trace.EvGoBlock {
				tag = fmt.Sprintf(" [LEAKED blocked:%s @%s:%d]", last.BlockReason(), last.File, last.Line)
			} else {
				tag = fmt.Sprintf(" [LEAKED last:%s]", last.Type)
			}
		}
		fmt.Fprintf(&b, "%sg%d %s (created %s:%d, %d events)%s\n",
			strings.Repeat("  ", depth), n.ID, n.Name, n.CreateFile, n.CreateLine, n.events, tag)
		children := append([]*Node{}, n.Children...)
		sort.Slice(children, func(i, j int) bool { return children[i].ID < children[j].ID })
		for _, c := range children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return b.String()
}
