package cover

import (
	"strings"
	"testing"

	"goat/internal/conc"
	"goat/internal/cu"
	"goat/internal/sim"
	"goat/internal/trace"
)

func traceOf(t *testing.T, seed int64, delays int, fn func(*sim.G)) *trace.Trace {
	t.Helper()
	return sim.Run(sim.Options{Seed: seed, Delays: delays, PreemptProb: -1}, fn).Trace
}

func TestStaticUniverseSeeded(t *testing.T) {
	m := NewModel(cu.NewModel([]cu.CU{
		{File: "a.go", Line: 1, Kind: cu.KindSend},
		{File: "a.go", Line: 2, Kind: cu.KindLock},
		{File: "a.go", Line: 3, Kind: cu.KindGo},
		{File: "a.go", Line: 4, Kind: cu.KindUnlock},
	}))
	// send: 3, lock: 2, go: 1, unlock: 2.
	if m.Total() != 8 {
		t.Fatalf("Total = %d, want 8", m.Total())
	}
	if m.CoveredCount() != 0 || m.Percent() != 0 {
		t.Fatal("fresh model should be uncovered")
	}
}

func TestReqNumbers(t *testing.T) {
	cases := []struct {
		r    Requirement
		want int
	}{
		{Requirement{CU: cu.CU{Kind: cu.KindSend}, Case: NoCase}, 1},
		{Requirement{CU: cu.CU{Kind: cu.KindSelect}, Case: 0}, 2},
		{Requirement{CU: cu.CU{Kind: cu.KindSelect}, Case: NoCase}, 4},
		{Requirement{CU: cu.CU{Kind: cu.KindLock}, Case: NoCase}, 3},
		{Requirement{CU: cu.CU{Kind: cu.KindClose}, Case: NoCase}, 4},
		{Requirement{CU: cu.CU{Kind: cu.KindGo}, Case: NoCase}, 5},
		{Requirement{CU: cu.CU{Kind: cu.KindSleep}, Case: NoCase}, 0},
	}
	for _, c := range cases {
		if got := c.r.ReqNumber(); got != c.want {
			t.Errorf("ReqNumber(%v) = %d, want %d", c.r.CU.Kind, got, c.want)
		}
	}
}

func TestChannelAspectsCovered(t *testing.T) {
	m := NewModel(nil)
	// Run 1: rendezvous where the sender parks (send-blocked +
	// recv-unblocking).
	m.AddRun(traceOf(t, 0, 0, func(g *sim.G) {
		ch := conc.NewChan[int](g, 0)
		g.Go("tx", func(c *sim.G) { ch.Send(c, 1) })
		g.Yield() // sender parks first
		ch.Recv(g)
		g.Yield()
	}))
	var sawSendBlocked, sawRecvUnblocking bool
	for _, r := range m.Covered() {
		if r.CU.Kind == cu.KindSend && r.Aspect == AspectBlocked {
			sawSendBlocked = true
		}
		if r.CU.Kind == cu.KindRecv && r.Aspect == AspectUnblocking {
			sawRecvUnblocking = true
		}
	}
	if !sawSendBlocked || !sawRecvUnblocking {
		t.Fatalf("covered = %v", m.Covered())
	}
	// The symmetric aspects (send-unblocking etc.) must exist uncovered.
	var uncoveredSendUnblocking bool
	for _, r := range m.Uncovered() {
		if r.CU.Kind == cu.KindSend && r.Aspect == AspectUnblocking {
			uncoveredSendUnblocking = true
		}
	}
	if !uncoveredSendUnblocking {
		t.Fatal("send-unblocking should be an uncovered requirement")
	}
}

func TestBufferedSendIsNOP(t *testing.T) {
	m := NewModel(nil)
	m.AddRun(traceOf(t, 0, 0, func(g *sim.G) {
		ch := conc.NewChan[int](g, 1)
		ch.Send(g, 1)
		ch.Recv(g)
	}))
	found := false
	for _, r := range m.Covered() {
		if r.CU.Kind == cu.KindSend && r.Aspect == AspectNOP {
			found = true
		}
	}
	if !found {
		t.Fatalf("buffered send should cover NOP; covered=%v", m.Covered())
	}
}

func TestLockBlockingAspectFromContention(t *testing.T) {
	m := NewModel(nil)
	m.AddRun(traceOf(t, 0, 0, func(g *sim.G) {
		mu := conc.NewMutex(g)
		mu.Lock(g)
		g.Go("contender", func(c *sim.G) {
			mu.Lock(c)
			mu.Unlock(c)
		})
		g.Yield() // contender blocks on the mutex we hold
		mu.Unlock(g)
		g.Yield()
	}))
	var blocking, blocked, unblocking bool
	for _, r := range m.Covered() {
		switch {
		case r.CU.Kind == cu.KindLock && r.Aspect == AspectBlocking:
			blocking = true
		case r.CU.Kind == cu.KindLock && r.Aspect == AspectBlocked:
			blocked = true
		case r.CU.Kind == cu.KindUnlock && r.Aspect == AspectUnblocking:
			unblocking = true
		}
	}
	if !blocking || !blocked || !unblocking {
		t.Fatalf("lock aspects missing: blocking=%v blocked=%v unblocking=%v\n%v",
			blocking, blocked, unblocking, m.Covered())
	}
}

func TestSelectCaseRequirementsDiscovered(t *testing.T) {
	m := NewModel(nil)
	m.AddRun(traceOf(t, 0, 0, func(g *sim.G) {
		a := conc.NewChan[int](g, 1)
		a.Send(g, 1)
		conc.Select(g, []conc.Case{conc.CaseRecv(a)}, false)
	}))
	// One executed case discovers 3 requirements; one covered (NOP or
	// unblocking depending on path — buffered recv with no parked sender
	// is NOP).
	var caseReqs, caseCovered int
	for _, r := range m.Covered() {
		if r.CU.Kind == cu.KindSelect && r.Case == 0 {
			caseCovered++
		}
	}
	for _, r := range append(m.Covered(), m.Uncovered()...) {
		if r.CU.Kind == cu.KindSelect && r.Case == 0 {
			caseReqs++
		}
	}
	if caseReqs != 3 || caseCovered != 1 {
		t.Fatalf("case reqs=%d covered=%d, want 3/1", caseReqs, caseCovered)
	}
}

func TestSelectDefaultCovered(t *testing.T) {
	m := NewModel(nil)
	m.AddRun(traceOf(t, 0, 0, func(g *sim.G) {
		a := conc.NewChan[int](g, 0)
		conc.Select(g, []conc.Case{conc.CaseRecv(a)}, true) // default fires
	}))
	found := false
	for _, r := range m.Covered() {
		if r.CU.Kind == cu.KindSelect && r.Dir == "default" && r.Aspect == AspectNOP {
			found = true
		}
	}
	if !found {
		t.Fatalf("default-clause requirement not covered: %v", m.Covered())
	}
}

func TestGoRequirementCovered(t *testing.T) {
	static := cu.NewModel([]cu.CU{{File: "cover_test.go", Line: 9999, Kind: cu.KindGo}})
	m := NewModel(static)
	m.AddRun(traceOf(t, 0, 0, func(g *sim.G) {
		g.Go("w", func(*sim.G) {})
		g.Yield()
	}))
	var goCovered bool
	for _, r := range m.Covered() {
		if r.CU.Kind == cu.KindGo && r.Aspect == AspectExec {
			goCovered = true
		}
	}
	if !goCovered {
		t.Fatal("go CU not covered")
	}
	// The static CU at the fictitious line 9999 was never executed: its
	// node-agnostic requirement must survive uncovered.
	var staticUncovered bool
	for _, r := range m.Uncovered() {
		if r.CU.Line == 9999 && r.Node == "" {
			staticUncovered = true
		}
	}
	if !staticUncovered {
		t.Fatal("unexecuted static CU lost from the universe")
	}
}

func TestCoverageAccumulatesAcrossRuns(t *testing.T) {
	prog := func(g *sim.G) {
		ch := conc.NewChan[int](g, 0)
		g.Go("tx", func(c *sim.G) { ch.Send(c, 1) })
		ch.Recv(g)
		g.Yield()
	}
	m := NewModel(nil)
	s1 := m.AddRun(traceOf(t, 1, 0, prog))
	if s1.Covered == 0 {
		t.Fatal("run 1 covered nothing")
	}
	covAfter1 := m.CoveredCount()
	// More runs with different schedules can only grow the covered set.
	for seed := int64(2); seed < 12; seed++ {
		m.AddRun(traceOf(t, seed, 2, prog))
	}
	if m.CoveredCount() < covAfter1 {
		t.Fatalf("covered shrank: %d -> %d", covAfter1, m.CoveredCount())
	}
	if m.Runs() != 11 {
		t.Fatalf("Runs = %d", m.Runs())
	}
}

func TestPerturbationImprovesCoverage(t *testing.T) {
	// The paper's central coverage claim: with larger D (schedule
	// perturbation) the same number of iterations covers at least as much.
	prog := func(g *sim.G) {
		ch := conc.NewChan[int](g, 1)
		mu := conc.NewMutex(g)
		g.Go("tx", func(c *sim.G) {
			mu.Lock(c)
			ch.Send(c, 1)
			mu.Unlock(c)
		})
		g.Go("rx", func(c *sim.G) {
			mu.Lock(c)
			ch.Recv(c)
			mu.Unlock(c)
		})
		conc.Sleep(g, 1000)
	}
	measure := func(delays int) float64 {
		m := NewModel(nil)
		for seed := int64(0); seed < 25; seed++ {
			r := sim.Run(sim.Options{Seed: seed, Delays: delays}, prog)
			m.AddRun(r.Trace)
		}
		return m.Percent()
	}
	d0, d3 := measure(0), measure(3)
	if d3+5 < d0 { // allow slack: universes differ as discovery differs
		t.Fatalf("coverage with D=3 (%0.1f%%) far below D=0 (%0.1f%%)", d3, d0)
	}
}

func TestRunStatsConsistent(t *testing.T) {
	m := NewModel(nil)
	st := m.AddRun(traceOf(t, 3, 0, func(g *sim.G) {
		ch := conc.NewChan[int](g, 1)
		ch.Send(g, 1)
		ch.Recv(g)
	}))
	if st.Run != 1 || st.Total != m.Total() || st.Covered != m.CoveredCount() {
		t.Fatalf("stats inconsistent: %+v vs total=%d covered=%d", st, m.Total(), m.CoveredCount())
	}
	if st.Percent <= 0 || st.Percent > 100 {
		t.Fatalf("percent = %f", st.Percent)
	}
}

func TestRequirementStringAndKey(t *testing.T) {
	r := Requirement{
		Node:   "main/x.go:3",
		CU:     cu.CU{File: "x.go", Line: 9, Kind: cu.KindSelect},
		Case:   1,
		Dir:    "recv",
		Aspect: AspectBlocked,
	}
	s := r.String()
	for _, want := range []string{"x.go:9", "case 1", "recv", "blocked", "main/x.go:3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	r2 := r
	r2.Aspect = AspectNOP
	if r.Key() == r2.Key() {
		t.Fatal("distinct requirements share a key")
	}
}

func TestKindGroups(t *testing.T) {
	groups := map[cu.Kind]string{
		cu.KindSend:   "Channel",
		cu.KindLock:   "Sync",
		cu.KindGo:     "Go",
		cu.KindSelect: "Go",
		cu.KindSleep:  "Timer",
	}
	for k, want := range groups {
		if got := k.Group(); got != want {
			t.Errorf("%v.Group() = %q, want %q", k, got, want)
		}
	}
}

func TestFirstCoveredRunTracking(t *testing.T) {
	m := NewModel(nil)
	prog := func(g *sim.G) {
		ch := conc.NewChan[int](g, 1)
		ch.Send(g, 1)
		ch.Recv(g)
	}
	m.AddRun(traceOf(t, 0, 0, prog))
	covered := m.Covered()
	if len(covered) == 0 {
		t.Fatal("nothing covered")
	}
	for _, r := range covered {
		if m.FirstCoveredRun(r) != 1 {
			t.Fatalf("requirement %v first covered at run %d, want 1", r, m.FirstCoveredRun(r))
		}
	}
	byRun := m.CoveredByRun(1)
	if len(byRun) != len(covered) {
		t.Fatalf("CoveredByRun(1) = %d, want %d", len(byRun), len(covered))
	}
	if len(m.CoveredByRun(2)) != 0 {
		t.Fatal("phantom coverage in run 2")
	}
	// A second identical run covers nothing new.
	m.AddRun(traceOf(t, 0, 0, prog))
	if len(m.CoveredByRun(2)) != 0 {
		t.Fatal("identical run 2 claimed new coverage")
	}
}
