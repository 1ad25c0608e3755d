// Predictive blocking detection: candidates a single passing trace
// proves *could* block under another schedule, even though this
// execution settled cleanly.
//
// The classic detectors in this package are manifestation-bound — they
// report a bug only in an execution where it actually bites, which is
// why Table IV counts executions-to-detection. Trace-based predictive
// analysis (Sulzmann & Stadtmüller's happens-before framework for Go)
// observes that many blocking bugs are visible in the synchronization
// skeleton of *any* execution: an AB-BA lock-order inversion is present
// in the trace whether or not the schedule interleaved the two critical
// sections fatally. The predictive detector mines one D=0 trace for such
// latent hazards and reports them as a POTENTIAL verdict.
//
// All concurrency judgments use the must-happens-before relation
// (hb.Must): lock-induced edges are excluded, because those orderings
// are schedule chance, exactly what an adversarial schedule reverses.
//
// Candidate kinds, each keyed to a trace pattern:
//
//   - lock-cycle: two goroutines acquired the same two locks in opposite
//     orders (Goodlock-style, with gate-lockset and read/write-mode
//     filtering) and the acquisitions are must-concurrent.
//   - rlock-reentry: a goroutine read-locked an RWMutex it already
//     read-holds while a must-concurrent writer acquires the same lock —
//     writer preference deadlocks the re-entry if the writer queues
//     between the two.
//   - missed-signal: a Cond wakeup whose signal is must-concurrent with
//     the waiter's park and is the last wakeup on that cond — flip the
//     order and the signal fires before the wait parks, forever.
//   - chan-under-lock: a goroutine performed a channel operation while
//     holding a lock that a must-concurrent peer — one that also touches
//     the same channel — acquires: the channel op can block holding the
//     lock the partner needs.
//   - guarded-partner: a channel with unconditional (non-select) sends
//     whose receives all come from select sites, and which is never
//     closed — the selects demonstrate the receiver has alternatives;
//     commit one and the hard send strands.
//   - stranded-value: a channel that is sent to but never received from
//     and never closed — the value (or the capacity slot it occupies) is
//     dead weight; a second sender blocks forever.
package detect

import (
	"fmt"
	"sort"
	"strings"

	"goat/internal/hb"
	"goat/internal/sim"
	"goat/internal/trace"
)

// Candidate is one predicted-but-unmanifested blocking hazard.
type Candidate struct {
	Kind   string
	Detail string
}

func (c Candidate) String() string { return c.Kind + ": " + c.Detail }

// Predictive is the predictive blocking detector. On an execution where
// a bug manifests it reports the manifest verdict (the GoAT Procedure 1
// classification); on a passing execution it reports POTENTIAL-k when
// the trace contains k predicted hazards. It needs the event stream, so
// campaigns run it as a streaming detector or with tracing enabled.
type Predictive struct{}

// Name implements Detector.
func (Predictive) Name() string { return "predict" }

// Detect implements Detector by replaying the buffered trace through the
// streaming core.
func (p Predictive) Detect(r *sim.Result) Detection {
	s := p.NewStream()
	if r.Trace != nil {
		_ = r.Trace.Replay(s) // source propagates: op-less producers disable the mining
	}
	return s.Finish(r)
}

// NewStream implements Streaming.
func (Predictive) NewStream() Stream { return NewPredictStream() }

// Predict is the analysis-only entry point: it mines a trace for
// candidates without classifying the execution (cmd/goat -predict).
func Predict(tr *trace.Trace) []Candidate {
	s := NewPredictStream()
	if tr != nil {
		_ = tr.Replay(s)
	}
	return s.Candidates()
}

// lockMode distinguishes write from read acquisition of a lock.
type lockMode uint8

const (
	modeWrite lockMode = iota
	modeRead
)

func (m lockMode) String() string {
	if m == modeRead {
		return "R"
	}
	return "W"
}

// lockEdge records "g acquired to while holding from" — one edge of the
// lock-order graph, with everything the cycle judgment needs: the
// acquisition modes, the gate lockset (other locks held at the edge),
// and the must-clock of the acquisition.
type lockEdge struct {
	g        trace.GoID
	from, to trace.ResID
	fromMode lockMode
	toMode   lockMode
	gate     map[trace.ResID]bool
	vc       hb.VC
	file     string
	line     int
}

// acq is one lock acquisition (or attempt) with its must-clock.
type acq struct {
	g    trace.GoID
	mode lockMode
	vc   hb.VC
}

// condPark is a goroutine's latest Cond.Wait park.
type condPark struct {
	res trace.ResID
	vc  hb.VC
}

// condCand is a pending missed-signal candidate, valid only if its wake
// turns out to be the last one on the cond.
type condCand struct {
	res      trace.ResID
	waiter   trace.GoID
	signaler trace.GoID
	wakeIdx  int
}

// chanInfo aggregates the per-channel operation census.
type chanInfo struct {
	hardSends int
	hardRecvs int
	selSends  int
	selRecvs  int
	closed    bool
	sendSite  string // first unconditional send site, for reports
	opsBy     map[trace.GoID]bool
}

// chanLockRec records a channel operation performed under a held lock.
type chanLockRec struct {
	ch   trace.ResID
	lock trace.ResID
	g    trace.GoID
	vc   hb.VC
	file string
	line int
}

// maxAcqsPerLockG bounds the retained acquisition clocks per (lock,
// goroutine): beyond the first few, later acquisitions add no new
// concurrency evidence worth their memory on long traces.
const maxAcqsPerLockG = 8

// PredictStream is the streaming core of the predictive detector: a
// Must-mode happens-before engine drives the clocks while the analyses
// accumulate their evidence from the same event feed.
type PredictStream struct {
	goat *GoatStream
	en   *hb.Engine

	held     map[trace.GoID]map[trace.ResID]lockMode
	edges    []lockEdge
	edgeSeen map[[3]uint64]bool // (g, from, to) dedup

	reentries []lockEdge // from == to: the re-entered lock
	lockAcqs  map[trace.ResID][]acq
	acqCount  map[[2]uint64]int // (lock, g) retention counter

	condRes   map[trace.ResID]bool
	condParks map[trace.GoID]condPark
	condCands []condCand
	wakeCount map[trace.ResID]int

	chans     map[trace.ResID]*chanInfo
	chanOrder []trace.ResID

	underLock []chanLockRec
	ulSeen    map[[3]uint64]bool // (ch, lock, g) dedup

	// disabled is latched by SetSource when the producer lacks
	// CapOpEvents: predictive mining reasons about the full operation
	// census (uncontended acquisitions, unlocks, completed channel ops),
	// so on blocking-only streams its evidence would be systematically
	// biased and it declines to predict.
	disabled bool
}

// SetSource implements trace.SourceAware: the manifest classifier adapts
// to the source (window verdicts, orphan adoption) while the predictive
// mining disables itself without the full operation census.
func (s *PredictStream) SetSource(src trace.SourceInfo) {
	s.goat.SetSource(src)
	s.disabled = !src.Has(trace.CapOpEvents)
}

// NewPredictStream returns a fresh single-execution predictive stream.
func NewPredictStream() *PredictStream {
	s := &PredictStream{goat: Goat{}.NewStream().(*GoatStream)}
	s.en = hb.NewEngine(hb.Must)
	s.en.Observer = s.observe
	s.reset()
	return s
}

func (s *PredictStream) reset() {
	s.held = map[trace.GoID]map[trace.ResID]lockMode{}
	s.edges = nil
	s.edgeSeen = map[[3]uint64]bool{}
	s.reentries = nil
	s.lockAcqs = map[trace.ResID][]acq{}
	s.acqCount = map[[2]uint64]int{}
	s.condRes = map[trace.ResID]bool{}
	s.condParks = map[trace.GoID]condPark{}
	s.condCands = nil
	s.wakeCount = map[trace.ResID]int{}
	s.chans = map[trace.ResID]*chanInfo{}
	s.chanOrder = nil
	s.underLock = nil
	s.ulSeen = map[[3]uint64]bool{}
}

// Reset implements Resettable.
func (s *PredictStream) Reset() {
	s.goat.Reset()
	s.en.Reset()
	s.reset()
	s.disabled = false
}

// Event implements trace.Sink: the manifest classifier and the hb engine
// (whose observer runs the predictive bookkeeping) both see every event.
func (s *PredictStream) Event(e trace.Event) {
	s.goat.Event(e)
	s.en.Event(e)
}

// EventBatch implements trace.BatchSink, forwarding the block to both
// member streams in one dispatch each.
func (s *PredictStream) EventBatch(evs []trace.Event) {
	s.goat.EventBatch(evs)
	for i := range evs {
		s.en.Event(evs[i])
	}
}

// Close implements trace.Sink.
func (s *PredictStream) Close() {}

func (s *PredictStream) chanOf(res trace.ResID) *chanInfo {
	ci, ok := s.chans[res]
	if !ok {
		ci = &chanInfo{opsBy: map[trace.GoID]bool{}}
		s.chans[res] = ci
		s.chanOrder = append(s.chanOrder, res)
	}
	return ci
}

// recordAcq retains a bounded number of acquisition clocks per lock and
// goroutine for the concurrency judgments.
func (s *PredictStream) recordAcq(res trace.ResID, g trace.GoID, mode lockMode, vc hb.VC) {
	key := [2]uint64{uint64(res), uint64(g)}
	if s.acqCount[key] >= maxAcqsPerLockG {
		return
	}
	s.acqCount[key]++
	s.lockAcqs[res] = append(s.lockAcqs[res], acq{g: g, mode: mode, vc: vc.Clone()})
}

// addEdges records one lock-order edge per currently-held lock, plus the
// re-entry record when the goroutine already holds the acquired lock.
func (s *PredictStream) addEdges(e trace.Event, mode lockMode, vc hb.VC) {
	hs := s.held[e.G]
	for h, hMode := range hs {
		if h == e.Res {
			if hMode == modeRead && mode == modeRead {
				s.reentries = append(s.reentries, lockEdge{
					g: e.G, from: h, to: e.Res, fromMode: hMode, toMode: mode,
					vc: vc.Clone(), file: e.File, line: e.Line,
				})
			}
			continue
		}
		key := [3]uint64{uint64(e.G), uint64(h), uint64(e.Res)}
		if s.edgeSeen[key] {
			continue
		}
		s.edgeSeen[key] = true
		gate := make(map[trace.ResID]bool, len(hs))
		for o := range hs {
			if o != h {
				gate[o] = true
			}
		}
		s.edges = append(s.edges, lockEdge{
			g: e.G, from: h, to: e.Res, fromMode: hMode, toMode: mode,
			gate: gate, vc: vc.Clone(), file: e.File, line: e.Line,
		})
	}
}

// chanOp records a channel operation: the census plus, when performed
// under held locks, the chan-under-lock evidence.
func (s *PredictStream) chanOp(e trace.Event, vc hb.VC) {
	ci := s.chanOf(e.Res)
	ci.opsBy[e.G] = true
	for lock := range s.held[e.G] {
		key := [3]uint64{uint64(e.Res), uint64(lock), uint64(e.G)}
		if s.ulSeen[key] {
			continue
		}
		s.ulSeen[key] = true
		s.underLock = append(s.underLock, chanLockRec{
			ch: e.Res, lock: lock, g: e.G, vc: vc.Clone(), file: e.File, line: e.Line,
		})
	}
}

// observe is the hb.Engine observer: every clock-ticking event with the
// acting goroutine's must-clock.
func (s *PredictStream) observe(e trace.Event, vc hb.VC) {
	switch e.Type {
	case trace.EvGoBlock:
		switch e.BlockReason() {
		case trace.BlockMutex:
			// An acquisition attempt orders after the held locks even if
			// the lock is never granted — same rule as LockDL.
			s.addEdges(e, modeWrite, vc)
			s.recordAcq(e.Res, e.G, modeWrite, vc)
		case trace.BlockRMutex:
			s.addEdges(e, modeRead, vc)
			s.recordAcq(e.Res, e.G, modeRead, vc)
		case trace.BlockCond:
			s.condRes[e.Res] = true
			s.condParks[e.G] = condPark{res: e.Res, vc: vc.Clone()}
		case trace.BlockSend, trace.BlockRecv:
			s.chanOp(e, vc)
		}
	case trace.EvMutexLock, trace.EvRWLock:
		if !e.Blocked { // blocked acquires recorded their edges at the attempt
			s.addEdges(e, modeWrite, vc)
			s.recordAcq(e.Res, e.G, modeWrite, vc)
		}
		hs := s.held[e.G]
		if hs == nil {
			hs = map[trace.ResID]lockMode{}
			s.held[e.G] = hs
		}
		hs[e.Res] = modeWrite
	case trace.EvRLock:
		if !e.Blocked {
			s.addEdges(e, modeRead, vc)
			s.recordAcq(e.Res, e.G, modeRead, vc)
		}
		hs := s.held[e.G]
		if hs == nil {
			hs = map[trace.ResID]lockMode{}
			s.held[e.G] = hs
		}
		hs[e.Res] = modeRead
	case trace.EvMutexUnlock, trace.EvRWUnlock, trace.EvRUnlock:
		if _, ok := s.held[e.G][e.Res]; ok {
			delete(s.held[e.G], e.Res)
			break
		}
		// Cross-goroutine unlock: release whoever holds it.
		for _, hs := range s.held {
			if _, ok := hs[e.Res]; ok {
				delete(hs, e.Res)
				break
			}
		}
	case trace.EvGoUnblock:
		if s.condRes[e.Res] && e.Peer != 0 {
			park, ok := s.condParks[e.Peer]
			if ok && park.res == e.Res && park.vc.Concurrent(vc) {
				s.condCands = append(s.condCands, condCand{
					res: e.Res, waiter: e.Peer, signaler: e.G,
					wakeIdx: s.wakeCount[e.Res] + 1,
				})
			}
		}
	case trace.EvCondSignal, trace.EvCondBroadcast:
		s.condRes[e.Res] = true
		s.wakeCount[e.Res]++
	case trace.EvCondWait:
		s.condRes[e.Res] = true
	case trace.EvChanMake:
		s.chanOf(e.Res)
	case trace.EvChanSend:
		ci := s.chanOf(e.Res)
		if e.Aux == trace.AuxTryOp {
			// A completed TrySend is partner evidence but can never
			// block: it neither counts as an unconditional send nor as a
			// block-holding-a-lock hazard.
			ci.opsBy[e.G] = true
			break
		}
		ci.hardSends++
		if ci.sendSite == "" {
			ci.sendSite = fmt.Sprintf("%s:%d", e.File, e.Line)
		}
		s.chanOp(e, vc)
	case trace.EvChanRecv:
		ci := s.chanOf(e.Res)
		if e.Aux == 1 {
			ci.hardRecvs++
		}
		s.chanOp(e, vc)
	case trace.EvSelectCase:
		ci := s.chanOf(e.Res)
		if e.Str == "send" {
			ci.selSends++
		} else {
			ci.selRecvs++
		}
		s.chanOp(e, vc)
	case trace.EvChanClose:
		s.chanOf(e.Res).closed = true
		s.chanOp(e, vc)
	}
}

// modesConflict reports whether two acquisition modes of the same lock
// can exclude each other: only read-read pairs cannot.
func modesConflict(a, b lockMode) bool {
	return !(a == modeRead && b == modeRead)
}

// gatesDisjoint implements Goodlock's gate filter: a common gate lock
// serializes the two edges, so the inversion cannot bite.
func gatesDisjoint(a, b map[trace.ResID]bool) bool {
	for l := range a {
		if b[l] {
			return false
		}
	}
	return true
}

// Candidates runs the end-of-trace judgments and returns the predicted
// hazards in a deterministic order.
func (s *PredictStream) Candidates() []Candidate {
	if s.disabled {
		return nil
	}
	var out []Candidate

	// lock-cycle: inverted edge pairs from distinct goroutines, gate-
	// disjoint, mode-conflicting on both locks, must-concurrent.
	seenPair := map[[2]uint64]bool{}
	for i, e1 := range s.edges {
		for _, e2 := range s.edges[i+1:] {
			if e1.g == e2.g || e1.from != e2.to || e1.to != e2.from {
				continue
			}
			a, b := e1.from, e1.to
			key := [2]uint64{uint64(min(a, b)), uint64(max(a, b))}
			if seenPair[key] {
				continue
			}
			if !gatesDisjoint(e1.gate, e2.gate) {
				continue
			}
			// Conflict on a: e1 holds a while e2 acquires it; on b the
			// roles are mirrored.
			if !modesConflict(e1.fromMode, e2.toMode) || !modesConflict(e1.toMode, e2.fromMode) {
				continue
			}
			if !e1.vc.Concurrent(e2.vc) {
				continue
			}
			seenPair[key] = true
			out = append(out, Candidate{
				Kind: "lock-cycle",
				Detail: fmt.Sprintf("r%d->r%d by g%d at %s:%d inverts r%d->r%d by g%d at %s:%d",
					a, b, e1.g, e1.file, e1.line, b, a, e2.g, e2.file, e2.line),
			})
		}
	}

	// rlock-reentry: recursive read acquisition with a must-concurrent
	// writer on the same RWMutex.
	seenRe := map[[2]uint64]bool{}
	for _, re := range s.reentries {
		key := [2]uint64{uint64(re.to), uint64(re.g)}
		if seenRe[key] {
			continue
		}
		for _, w := range s.lockAcqs[re.to] {
			if w.g == re.g || w.mode != modeWrite || !w.vc.Concurrent(re.vc) {
				continue
			}
			seenRe[key] = true
			out = append(out, Candidate{
				Kind: "rlock-reentry",
				Detail: fmt.Sprintf("g%d re-read-locks r%d at %s:%d while g%d write-locks it concurrently",
					re.g, re.to, re.file, re.line, w.g),
			})
			break
		}
	}

	// missed-signal: the wake must be the cond's last — any later signal
	// or broadcast would rescue a waiter that parked late.
	seenCond := map[trace.ResID]bool{}
	for _, c := range s.condCands {
		if c.wakeIdx != s.wakeCount[c.res] || seenCond[c.res] {
			continue
		}
		seenCond[c.res] = true
		out = append(out, Candidate{
			Kind: "missed-signal",
			Detail: fmt.Sprintf("last wake of cond r%d by g%d is concurrent with g%d's park: reordered, the wait never returns",
				c.res, c.signaler, c.waiter),
		})
	}

	// chan-under-lock: the op can block holding a lock a concurrent
	// partner on the same channel needs.
	seenUL := map[[2]uint64]bool{}
	for _, rec := range s.underLock {
		key := [2]uint64{uint64(rec.ch), uint64(rec.lock)}
		if seenUL[key] {
			continue
		}
		ci := s.chans[rec.ch]
		if ci == nil {
			continue
		}
		for _, a := range s.lockAcqs[rec.lock] {
			if a.g == rec.g || !ci.opsBy[a.g] || !a.vc.Concurrent(rec.vc) {
				continue
			}
			seenUL[key] = true
			out = append(out, Candidate{
				Kind: "chan-under-lock",
				Detail: fmt.Sprintf("g%d operates on chan r%d at %s:%d holding r%d, which chan partner g%d acquires concurrently",
					rec.g, rec.ch, rec.file, rec.line, rec.lock, a.g),
			})
			break
		}
	}

	// Channel-census rules, in channel creation order. Only unconditional
	// sends count (TrySend events carry trace.AuxTryOp and are excluded —
	// a try-op can never strand).
	for _, res := range s.chanOrder {
		ci := s.chans[res]
		switch {
		case ci.hardSends > 0 && ci.selRecvs > 0 && !ci.closed:
			out = append(out, Candidate{
				Kind: "guarded-partner",
				Detail: fmt.Sprintf("chan r%d: unconditional send at %s meets only select-guarded receives and no close — the select's alternative strands the sender",
					res, ci.sendSite),
			})
		case ci.hardSends > 0 && ci.hardRecvs == 0 && ci.selRecvs == 0 && !ci.closed:
			out = append(out, Candidate{
				Kind: "stranded-value",
				Detail: fmt.Sprintf("chan r%d: unconditional send at %s is never received or closed — a capacity-full repeat of it blocks forever",
					res, ci.sendSite),
			})
		}
	}
	return out
}

// Finish implements Stream: a manifest detection wins; otherwise the
// candidate set decides between POTENTIAL-k and OK.
func (s *PredictStream) Finish(r *sim.Result) Detection {
	base := s.goat.Finish(r)
	base.Tool = "predict"
	if base.Found {
		return base
	}
	cands := s.Candidates()
	if len(cands) == 0 {
		if s.disabled && !base.Found {
			base.Detail = "predictive mining disabled: producer records only blocking operations"
		}
		return base
	}
	var b strings.Builder
	for i, c := range cands {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(c.String())
	}
	return found(Detection{Tool: "predict"}, fmt.Sprintf("POTENTIAL-%d", len(cands)), b.String())
}

// sortCandidates orders candidates by kind then detail — used by tests
// that compare candidate sets across runs with different interleavings.
func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Kind != cs[j].Kind {
			return cs[i].Kind < cs[j].Kind
		}
		return cs[i].Detail < cs[j].Detail
	})
}
