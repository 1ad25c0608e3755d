package detect

import (
	"testing"

	"goat/internal/sim"
	"goat/internal/trace"
)

// lockEv builds the minimal mutex event sequence of an ABBA cycle formed
// by one goroutine taking the locks in both orders.
func abbaEvents() []trace.Event {
	mk := func(ts int64, ty trace.Type, res trace.ResID) trace.Event {
		return trace.Event{Ts: ts, G: 1, Type: ty, Res: res, File: "abba.go", Line: int(ts)}
	}
	return []trace.Event{
		mk(1, trace.EvMutexLock, 1),
		mk(2, trace.EvMutexLock, 2), // edge r1 -> r2
		mk(3, trace.EvMutexUnlock, 2),
		mk(4, trace.EvMutexUnlock, 1),
		mk(5, trace.EvMutexLock, 2),
		mk(6, trace.EvMutexLock, 1), // edge r2 -> r1: closes the cycle
		mk(7, trace.EvMutexUnlock, 1),
		mk(8, trace.EvMutexUnlock, 2),
	}
}

// TestLockDLStreamFindsCycleAtFinish: the lock-order cycle check runs
// at Finish, over the whole run's graph, never mid-stream.
func TestLockDLStreamFindsCycleAtFinish(t *testing.T) {
	s := LockDL{}.NewStream().(*LockDLStream)
	for _, e := range abbaEvents() {
		s.Event(e)
		if s.warn != "" {
			t.Fatalf("warning latched mid-stream at ts %d: %q", e.Ts, s.warn)
		}
	}
	d := s.Finish(&sim.Result{Outcome: sim.OutcomeOK})
	if !d.Found || d.Verdict != "DL" {
		t.Fatalf("post-run verdict %+v", d)
	}
}

func TestGoatStreamMatchesProcedureOne(t *testing.T) {
	mk := func(ts int64, g trace.GoID, ty trace.Type, peer trace.GoID) trace.Event {
		return trace.Event{Ts: ts, G: g, Type: ty, Peer: peer}
	}
	// main spawns g2 (leaks) and a system goroutine g3 (also unfinished,
	// but invisible to Procedure 1); main ends.
	s := Goat{}.NewStream()
	for _, e := range []trace.Event{
		mk(1, 1, trace.EvGoStart, 0),
		mk(2, 1, trace.EvGoCreate, 2),
		{Ts: 3, G: 1, Type: trace.EvGoCreate, Peer: 3, Aux: 1},
		mk(4, 2, trace.EvGoStart, 0),
		mk(5, 3, trace.EvGoStart, 0),
		mk(6, 2, trace.EvGoBlock, 0),
		mk(7, 1, trace.EvGoEnd, 0),
	} {
		s.Event(e)
	}
	d := s.Finish(&sim.Result{Outcome: sim.OutcomeLeak})
	if !d.Found || d.Verdict != "PDL-1" {
		t.Fatalf("verdict %+v, want PDL-1 (system goroutine must not count)", d)
	}
}

func TestGoatStreamUnknownGoroutineLatchesError(t *testing.T) {
	s := Goat{}.NewStream()
	s.Event(trace.Event{Ts: 1, G: 1, Type: trace.EvGoStart})
	s.Event(trace.Event{Ts: 2, G: 9, Type: trace.EvGoStart}) // never created
	s.Event(trace.Event{Ts: 3, G: 1, Type: trace.EvGoEnd})
	d := s.Finish(&sim.Result{Outcome: sim.OutcomeOK})
	if !d.Found || d.Verdict != "ERROR" {
		t.Fatalf("verdict %+v, want ERROR", d)
	}
	if want := "gtree: event by unknown goroutine g9 at ts 2"; d.Detail != want {
		t.Fatalf("detail %q, want %q", d.Detail, want)
	}
}
