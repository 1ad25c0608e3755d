package detect

import (
	"fmt"
	"sort"

	"goat/internal/sim"
	"goat/internal/trace"
)

// LockDL emulates the lock-order deadlock detector the paper compares
// against (sasha-s/go-deadlock): it intercepts every mutex lock/unlock,
// maintains per-goroutine locksets and a global lock-order graph, and
// warns on (a) a cycle in the lock-order graph, (b) double-locking the
// same lock in one goroutine, or (c) a 30-second global timeout. Channels
// are invisible to it, so communication deadlocks escape unless they also
// trip the timeout.
type LockDL struct{}

// Name implements Detector.
func (LockDL) Name() string { return "lockdl" }

// Detect implements Detector. It is the post-hoc entry point: the
// buffered trace (when present) is replayed through the streaming core
// (LockDLStream), which campaigns attach directly to the run instead.
func (l LockDL) Detect(r *sim.Result) Detection {
	s := l.NewStream()
	if r.Trace != nil {
		r.Trace.Replay(s) // source propagates: op-less producers disable the analysis
	}
	return s.Finish(r)
}

// lockGraph is the accumulated lock-order digraph: an edge a→b means some
// goroutine acquired b while holding a.
type lockGraph struct {
	edges map[trace.ResID]map[trace.ResID]bool
}

func (g *lockGraph) add(from, to trace.ResID) {
	if g.edges == nil {
		g.edges = map[trace.ResID]map[trace.ResID]bool{}
	}
	if g.edges[from] == nil {
		g.edges[from] = map[trace.ResID]bool{}
	}
	g.edges[from][to] = true
}

// cycle returns a description of one cycle in the graph, or "".
func (g *lockGraph) cycle() string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[trace.ResID]int{}
	var nodes []trace.ResID
	for n := range g.edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var stack []trace.ResID
	var hit string
	var dfs func(n trace.ResID) bool
	dfs = func(n trace.ResID) bool {
		color[n] = gray
		stack = append(stack, n)
		var succs []trace.ResID
		for s := range g.edges[n] {
			succs = append(succs, s)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, s := range succs {
			switch color[s] {
			case gray:
				// Found a back edge: report the cycle slice of the stack.
				i := 0
				for j, v := range stack {
					if v == s {
						i = j
						break
					}
				}
				hit = fmt.Sprintf("lock-order cycle: %v", append(append([]trace.ResID{}, stack[i:]...), s))
				return true
			case white:
				if dfs(s) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && dfs(n) {
			return hit
		}
	}
	return ""
}

// The event-by-event lock-order analysis lives in LockDLStream (see
// stream.go): blocked acquisitions record their lock-order edges at the
// attempt, not only at the (possibly never-happening) acquisition — this
// is how LockDL warns before the deadlock bites.
