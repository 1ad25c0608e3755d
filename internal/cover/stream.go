package cover

import (
	"fmt"

	"goat/internal/cu"
	"goat/internal/trace"
)

// RunSink is the coverage fold: a trace.Sink that folds one execution's
// events into the Model as the virtual runtime emits them, without the
// run ever buffering a trace or building a goroutine tree. The post-hoc
// AddRun replays a buffered trace through the same sink.
//
// The sink tracks application-level goroutines incrementally: a child
// spawned by a registered goroutine (with a non-system GoCreate) is
// registered under the parent's key extended by the creation site —
// the same equivalence key gtree assigns. Events by unregistered
// goroutines (system goroutines and their descendants) are ignored, so
// only the tree's application nodes contribute.
type RunSink struct {
	m      *Model
	before int // covered count when the run started

	// nodeOf maps live application goroutines to their equivalence key.
	nodeOf map[trace.GoID]string

	// holder tracks, per lock resource, the CU and node of the last
	// goroutine that acquired it — the target of AspectBlocking.
	holder map[trace.ResID]holderInfo

	// windowed (trace.SourceAware) lets goroutines that pre-existed a
	// window trace register themselves by their own GoStart, with the
	// same orphan key gtree assigns.
	windowed bool
}

// SetSource implements trace.SourceAware.
func (s *RunSink) SetSource(src trace.SourceInfo) {
	s.windowed = !src.Has(trace.CapCreateObserved)
}

type holderInfo struct {
	node string
	cu   cu.CU
}

// StreamRun starts accumulating one execution online and returns its
// sink. The run is counted immediately (requirements it covers first are
// attributed to it); call Finish for the post-run statistics.
func (m *Model) StreamRun() *RunSink {
	m.runs++
	return &RunSink{
		m:      m,
		before: m.CoveredCount(),
		nodeOf: map[trace.GoID]string{1: "main"},
		holder: map[trace.ResID]holderInfo{},
	}
}

// Event implements trace.Sink: it folds one event into the model.
func (s *RunSink) Event(e trace.Event) {
	node, ok := s.nodeOf[e.G]
	if !ok {
		if s.windowed && e.Type == trace.EvGoStart && e.Aux != 1 {
			// Orphan adoption, key-compatible with gtree.Build.
			s.nodeOf[e.G] = fmt.Sprintf("orphan/%s@%s:%d", e.Str, e.File, e.Line)
		}
		return // system goroutine (or descendant): not an application node
	}
	m := s.m
	switch e.Type {
	case trace.EvGoBlock:
		// Contention on a lock covers the holder's "blocking" aspect.
		// Res 0 (identity unknown) must not alias all such locks into
		// one holder bucket.
		reason := e.BlockReason()
		if reason == trace.BlockMutex || reason == trace.BlockRMutex {
			if h, ok := s.holder[e.Res]; e.Res != 0 && ok {
				m.mark(h.node, h.cu, NoCase, "", AspectBlocking)
			}
		}
		return
	case trace.EvGoStart, trace.EvGoEnd, trace.EvGoSched, trace.EvGoPreempt,
		trace.EvGoUnblock, trace.EvGoPanic, trace.EvChanMake, trace.EvUserLog:
		return
	}
	kind := kindForEvent(e)
	if kind == cu.KindNone {
		return
	}
	c := cu.CU{File: e.File, Line: e.Line, Kind: kind}
	switch e.Type {
	case trace.EvGoCreate:
		if e.Aux == 1 {
			return // system goroutine creation is not an app CU
		}
		s.nodeOf[e.Peer] = fmt.Sprintf("%s/%s:%d", node, e.File, e.Line)
		m.mark(node, c, NoCase, "", AspectExec)
	case trace.EvSelect:
		if e.Aux == int64(DefaultCase) {
			m.mark(node, c, NoCase, "default", AspectNOP)
		}
		// Chosen-case coverage comes from the EvSelectCase event.
	case trace.EvSelectCase:
		m.mark(node, c, int(e.Aux), e.Str, aspectOf(e))
	case trace.EvMutexLock, trace.EvRWLock, trace.EvRLock:
		m.instantiate(node, c)
		if e.Blocked {
			m.mark(node, c, NoCase, "", AspectBlocked)
		}
		if e.Res != 0 {
			s.holder[e.Res] = holderInfo{node: node, cu: c}
		}
	case trace.EvMutexUnlock, trace.EvRWUnlock, trace.EvRUnlock:
		m.mark(node, c, NoCase, "", aspectOfUnblock(e))
		if e.Peer == 0 && e.Res != 0 {
			delete(s.holder, e.Res)
		}
	case trace.EvChanClose, trace.EvCondSignal, trace.EvCondBroadcast, trace.EvWgAdd:
		m.mark(node, c, NoCase, "", aspectOfUnblock(e))
	case trace.EvSleep:
		m.instantiate(node, c) // no aspects: presence only
	default:
		m.mark(node, c, NoCase, "", aspectOf(e))
	}
}

// Close implements trace.Sink.
func (s *RunSink) Close() {}

// Finish returns the post-run statistics.
func (s *RunSink) Finish() RunStats {
	covered := s.m.CoveredCount()
	return RunStats{
		Run:        s.m.runs,
		Total:      s.m.Total(),
		Covered:    covered,
		Percent:    s.m.Percent(),
		NewCovered: covered - s.before,
	}
}
