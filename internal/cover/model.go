package cover

import (
	"sort"
	"strconv"

	"goat/internal/cu"
	"goat/internal/trace"
)

// Model is the coverage model of a test campaign: the requirement universe
// (static catalogue plus dynamically discovered requirements), the covered
// set, and the per-goroutine-node accounting that survives across runs via
// the goroutine equivalence relation.
//
// The universe is dynamic in two ways, and both match the paper's observed
// behavior (the Fig. 6b dip): select cases only become requirements when a
// run first reaches them, and a CU's requirements are instantiated per
// equivalent goroutine node once some run shows that node executing the CU
// (until then the CU carries a single node-agnostic copy of its
// requirements, so dead code stays visible as uncovered).
type Model struct {
	universe map[string]Requirement
	covered  map[string]bool
	// firstRun records the 1-based run index that first covered each
	// requirement — the "covered by run #k" columns of Table III.
	firstRun map[string]int
	// instantiated tracks which (node, CU) pairs already expanded, and
	// cuNodes which nodes have instances for a CU (to retire the static copy).
	instantiated map[string]bool
	runs         int
}

// NewModel seeds the universe from the static CU model (may be nil or
// empty: the universe then grows purely dynamically).
func NewModel(static *cu.Model) *Model {
	m := &Model{
		universe:     map[string]Requirement{},
		covered:      map[string]bool{},
		firstRun:     map[string]int{},
		instantiated: map[string]bool{},
	}
	if static != nil {
		for _, c := range static.All() {
			for _, a := range aspectsFor(c.Kind) {
				r := Requirement{CU: c, Case: NoCase, Aspect: a}
				m.universe[r.Key()] = r
			}
		}
	}
	return m
}

// Runs returns how many executions have been accumulated.
func (m *Model) Runs() int { return m.runs }

// Total returns the current requirement-universe size.
func (m *Model) Total() int { return len(m.universe) }

// CoveredCount returns how many universe requirements are covered.
func (m *Model) CoveredCount() int {
	n := 0
	for k := range m.covered {
		if _, ok := m.universe[k]; ok {
			n++
		}
	}
	return n
}

// Percent returns the coverage percentage (0 when the universe is empty).
func (m *Model) Percent() float64 {
	if len(m.universe) == 0 {
		return 0
	}
	return 100 * float64(m.CoveredCount()) / float64(len(m.universe))
}

// Uncovered lists the uncovered requirements in deterministic order.
func (m *Model) Uncovered() []Requirement {
	var out []Requirement
	for k, r := range m.universe {
		if !m.covered[k] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Covered lists the covered requirements in deterministic order.
func (m *Model) Covered() []Requirement {
	var out []Requirement
	for k, r := range m.universe {
		if m.covered[k] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// instantiate ensures the per-node requirement instances of c exist for
// node, retiring the node-agnostic static copy of c's requirements.
func (m *Model) instantiate(node string, c cu.CU) {
	ik := node + "|" + c.Key()
	if m.instantiated[ik] {
		return
	}
	m.instantiated[ik] = true
	for _, a := range aspectsFor(c.Kind) {
		r := Requirement{Node: node, CU: c, Case: NoCase, Aspect: a}
		m.universe[r.Key()] = r
		// Retire the static (node-agnostic) copy.
		static := Requirement{CU: c, Case: NoCase, Aspect: a}
		delete(m.universe, static.Key())
	}
}

// instantiateCase ensures Req2 instances exist for a discovered select case.
func (m *Model) instantiateCase(node string, c cu.CU, caseIdx int, dir string) {
	ik := node + "|" + c.Key() + "|case" + strconv.Itoa(caseIdx) + dir
	if m.instantiated[ik] {
		return
	}
	m.instantiated[ik] = true
	aspects := selectCaseAspects()
	if caseIdx == NoCase { // the default clause: only NOP is possible
		aspects = []Aspect{AspectNOP}
	}
	for _, a := range aspects {
		r := Requirement{Node: node, CU: c, Case: caseIdx, Dir: dir, Aspect: a}
		m.universe[r.Key()] = r
	}
}

// mark covers one requirement instance (instantiating as needed).
func (m *Model) mark(node string, c cu.CU, caseIdx int, dir string, a Aspect) {
	if caseIdx == NoCase && c.Kind != cu.KindSelect {
		m.instantiate(node, c)
	} else {
		m.instantiateCase(node, c, caseIdx, dir)
	}
	r := Requirement{Node: node, CU: c, Case: caseIdx, Dir: dir, Aspect: a}
	key := r.Key()
	if !m.covered[key] {
		m.covered[key] = true
		if m.runs > 0 {
			m.firstRun[key] = m.runs
		}
	}
}

// FirstCoveredRun returns the 1-based run that first covered r, or 0 if r
// is uncovered (or was covered outside AddRun).
func (m *Model) FirstCoveredRun(r Requirement) int { return m.firstRun[r.Key()] }

// CoveredByRun returns the requirements first covered by the given run.
func (m *Model) CoveredByRun(run int) []Requirement {
	var out []Requirement
	for k, r := range m.universe {
		if m.covered[k] && m.firstRun[k] == run {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// kindForEvent maps a trace event to the CU kind it manifests.
func kindForEvent(e trace.Event) cu.Kind {
	switch e.Type {
	case trace.EvChanSend:
		return cu.KindSend
	case trace.EvChanRecv:
		return cu.KindRecv
	case trace.EvChanClose:
		return cu.KindClose
	case trace.EvMutexLock:
		return cu.KindLock
	case trace.EvMutexUnlock:
		return cu.KindUnlock
	case trace.EvRWLock:
		return cu.KindLock
	case trace.EvRWUnlock:
		return cu.KindUnlock
	case trace.EvRLock:
		return cu.KindRLock
	case trace.EvRUnlock:
		return cu.KindRUnlock
	case trace.EvWgAdd:
		if e.Aux < 0 {
			return cu.KindWgDone
		}
		return cu.KindWgAdd
	case trace.EvWgWait:
		return cu.KindWgWait
	case trace.EvCondWait:
		return cu.KindCondWait
	case trace.EvCondSignal:
		return cu.KindSignal
	case trace.EvCondBroadcast:
		return cu.KindBroadcast
	case trace.EvOnceDo:
		return cu.KindOnce
	case trace.EvGoCreate:
		return cu.KindGo
	case trace.EvSelect, trace.EvSelectCase:
		return cu.KindSelect
	case trace.EvSleep:
		return cu.KindSleep
	default:
		return cu.KindNone
	}
}

// aspectOf derives the covered aspect of a completed action event.
func aspectOf(e trace.Event) Aspect {
	if e.Blocked {
		return AspectBlocked
	}
	if e.Unblocking() {
		return AspectUnblocking
	}
	return AspectNOP
}

// RunStats summarizes one accumulated execution.
type RunStats struct {
	Run        int     // 1-based index of the run
	Total      int     // universe size after the run
	Covered    int     // covered count after the run
	Percent    float64 // coverage percentage after the run
	NewCovered int     // requirements newly covered by this run
}

// AddRun folds one execution's ECT into the model and returns the
// post-run statistics. Only application-level goroutines contribute. It
// is the post-hoc entry point: the trace is replayed through the
// streaming RunSink, which campaigns attach directly to the run instead.
func (m *Model) AddRun(tr *trace.Trace) RunStats {
	s := m.StreamRun()
	tr.Replay(s)
	return s.Finish()
}

// aspectOfUnblock classifies Req4 actions: unblocking or NOP.
func aspectOfUnblock(e trace.Event) Aspect {
	if e.Unblocking() {
		return AspectUnblocking
	}
	return AspectNOP
}

// DefaultCase is the select "default clause" marker mirrored from conc.
const DefaultCase = -1
