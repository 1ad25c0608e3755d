package cover

import (
	"fmt"
	"sort"

	"goat/internal/gtree"
	"goat/internal/trace"
)

// PairModel implements the synchronization-pair coverage metric the paper
// cites from prior work ([33], Hong et al.): the covered units are pairs
// (unblocking CU → blocked CU) observed on the same resource — which
// synchronization handoffs the test schedules have exercised. GoAT's
// Req1–Req5 metric subsumes it in practice; this implementation exists to
// compare saturation behavior (see BenchmarkMetricSaturation).
//
// Pairs are discovered dynamically: the universe is the set of distinct
// pairs any run has shown, so the interesting output is the discovery
// curve — how many distinct pairs the first k iterations found.
type PairModel struct {
	pairs map[string]SyncPair
	runs  int
	curve []int // distinct pairs after each run
}

// SyncPair is one observed handoff: the unblocking action's CU and the
// CU at which the woken goroutine had blocked.
type SyncPair struct {
	Res       trace.ResID
	Unblocker string // file:line of the unblocking CU
	Blocked   string // file:line of the blocked CU
}

// Key is the canonical map key.
func (p SyncPair) Key() string {
	return fmt.Sprintf("r%d|%s->%s", p.Res, p.Unblocker, p.Blocked)
}

// String renders the pair.
func (p SyncPair) String() string {
	return fmt.Sprintf("%s -> %s (r%d)", p.Unblocker, p.Blocked, p.Res)
}

// NewPairModel creates an empty synchronization-pair model.
func NewPairModel() *PairModel {
	return &PairModel{pairs: map[string]SyncPair{}}
}

// Runs returns the number of accumulated executions.
func (m *PairModel) Runs() int { return m.runs }

// Distinct returns how many distinct pairs have been observed.
func (m *PairModel) Distinct() int { return len(m.pairs) }

// Curve returns the discovery curve: distinct pairs after each run.
func (m *PairModel) Curve() []int { return append([]int(nil), m.curve...) }

// Pairs returns the observed pairs in deterministic order.
func (m *PairModel) Pairs() []SyncPair {
	out := make([]SyncPair, 0, len(m.pairs))
	for _, p := range m.pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// AddRun folds one execution's ECT tr, whose goroutine tree is t, into
// the model and returns how many pairs the run newly discovered.
func (m *PairModel) AddRun(tr *trace.Trace, t *gtree.Tree) int {
	m.runs++
	// Walk the application goroutines' events in trace order; track each
	// goroutine's pending block site, and match it when an unblocking
	// event names it as peer.
	appIDs := map[trace.GoID]bool{}
	for _, n := range t.AppNodes() {
		appIDs[n.ID] = true
	}

	blockSite := map[trace.GoID]string{}
	before := len(m.pairs)
	for _, e := range tr.Events {
		if !appIDs[e.G] {
			continue
		}
		switch e.Type {
		case trace.EvGoBlock:
			blockSite[e.G] = fmt.Sprintf("%s:%d", e.File, e.Line)
		case trace.EvGoUnblock:
			// The unblock event itself has no CU; the unblocking action's
			// CU arrives on the very next action event of the same
			// goroutine — but the resource and peer are already here. We
			// approximate the unblocker CU with the action event that
			// carries the same Ts neighborhood: in this runtime the
			// action event directly follows its EvGoUnblock, so peek via
			// a pending slot.
		}
		// Action events that woke a peer carry Peer + their own CU.
		if e.Peer != 0 && e.Type != trace.EvGoCreate && e.Type != trace.EvGoUnblock && appIDs[e.Peer] {
			if site, ok := blockSite[e.Peer]; ok {
				p := SyncPair{
					Res:       e.Res,
					Unblocker: fmt.Sprintf("%s:%d", e.File, e.Line),
					Blocked:   site,
				}
				m.pairs[p.Key()] = p
				delete(blockSite, e.Peer)
			}
		}
	}
	m.curve = append(m.curve, len(m.pairs))
	return len(m.pairs) - before
}
