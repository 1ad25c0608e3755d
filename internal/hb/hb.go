// Package hb is the shared happens-before layer: a vector-clock engine
// over the ECT event vocabulary that every trace-level analysis builds
// on. It grew out of the clock core that was private to internal/race;
// promoting it lets the race checker, the predictive blocking detector
// and the systematic explorer's schedule pruning share one definition of
// "ordered", so a fixed edge rule fixes every client at once.
//
// The engine is a streaming trace.Sink: feed it the event sequence of an
// execution (live from the scheduler, or replayed from a buffered trace —
// the two are byte-identical views) and it maintains one vector clock per
// goroutine, deriving synchronization edges from the events:
//
//   - program order within each goroutine;
//   - EvGoCreate → the child's first event;
//   - every EvGoUnblock (the waker's clock flows into the woken
//     goroutine), which covers rendezvous channels, mutex handoff,
//     WaitGroup release, Cond signal/broadcast and Once completion;
//   - buffered channels: the k-th send happens-before the k-th receive
//     (FIFO), and a close happens-before every receive that observes it;
//   - mutexes: each release's clock flows into every later acquisition of
//     the same lock (read acquisitions included — a deliberate
//     over-approximation that cannot produce false positives for
//     lock-protected data);
//   - WaitGroup: every counter-decrementing Add flows into each Wait.
//
// Two edge modes are provided. Full applies every rule above — the
// relation a race checker wants, where anything this schedule ordered is
// ordered. Must drops the lock-induced edges (mutex release→acquire and
// lock-kind unblocks): those edges exist only because *this* schedule
// acquired the locks in that order, and a predictive analysis asking
// "could another schedule reverse these?" must not let them mask the
// answer. Must-concurrent events are reorderable candidates; the
// remaining edges (creation, channel, waitgroup, wakeup) are forced by
// the program itself.
//
// Scheduling-noise events (EvGoSched, EvGoPreempt) neither tick clocks
// nor enter the footprint: two executions that differ only in where the
// scheduler yielded have identical clocks and footprints, which is
// exactly what the HB-pruned systematic explorer keys on.
//
// Clocks are dense: the engine numbers goroutines with slots 0, 1, 2, …
// in the order it first needs their clock and owns the GoID↔slot table,
// so a clock is a []int64 indexed by slot whatever IDs the trace uses
// (native captures number goroutines sparsely, in the millions). Only
// the footprint looks through the table: it hashes each non-zero entry
// under its slot's GoID, so footprints do not depend on slot order.
package hb

import (
	"sort"

	"goat/internal/trace"
)

// VC is a vector clock over an engine's goroutine slots: entry s is the
// logical time of the goroutine the engine numbered s. Slots are dense
// and assigned in first-seen order, so a clock is a short slice however
// large or sparse the trace's goroutine IDs are; entries past the end
// read as 0. Clocks are comparable only with clocks of the same engine
// (and so the same slot table), and must never be indexed by a GoID.
type VC []int64

// at returns entry s, reading entries past the end as 0.
func (v VC) at(s int) int64 {
	if s < len(v) {
		return v[s]
	}
	return 0
}

// Clone returns an independent copy of the clock.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Join folds other into v (pointwise max), growing v to other's length.
func (v *VC) Join(other VC) {
	w := grown(*v, len(other))
	for s, t := range other {
		if t > w[s] {
			w[s] = t
		}
	}
	*v = w
}

// Leq reports whether v happens-before-or-equals other (pointwise ≤).
func (v VC) Leq(other VC) bool {
	for s, t := range v {
		if t > other.at(s) {
			return false
		}
	}
	return true
}

// Concurrent reports that neither clock is ordered before the other.
func (v VC) Concurrent(other VC) bool {
	return !v.Leq(other) && !other.Leq(v)
}

// Mode selects which synchronization edges the engine applies.
type Mode uint8

const (
	// Full applies every edge rule — the relation of the race checker:
	// everything this schedule ordered is ordered.
	Full Mode = iota
	// Must drops the lock-induced edges (mutex release→acquire joins and
	// GoUnblock joins whose resource is a lock): the relation of the
	// predictive analyses, where lock acquisition order is treated as
	// reorderable by another schedule.
	Must
)

// resKind tags a resource by the primitive family its events revealed,
// so Must mode can tell a lock handoff from a channel wakeup.
type resKind uint8

const (
	kindUnknown resKind = iota
	kindLock
	kindChan
	kindCond
	kindWg
)

// Engine is the streaming happens-before engine. The zero value is not
// usable; construct with NewEngine. It implements trace.Sink.
type Engine struct {
	mode Mode

	// The GoID↔slot table: slotOf numbers goroutines densely in the
	// order the engine first needs their clock; slots holds each slot's
	// goroutine and live clock.
	slotOf map[trace.GoID]int
	slots  []slotClock

	// Per-resource edge state, indexed through resOf.
	resOf map[trace.ResID]int
	res   []resState

	events    int
	footprint uint64

	// Observer, when set before streaming, is called for every
	// clock-ticking event after its edges have been applied, with the
	// acting goroutine's current clock. The clock is borrowed: observers
	// that keep it must Clone.
	Observer func(e trace.Event, vc VC)
}

// slotClock is one goroutine's entry in the slot table.
type slotClock struct {
	g  trace.GoID
	vc VC
}

// resState is what the edge rules remember about one resource.
type resState struct {
	kind  resKind
	sends []VC // FIFO of send clocks (channels)
	close VC   // the closer's clock, nil until closed (channels)
	lock  VC   // join of every release (mutexes, Full mode)
	wg    VC   // join of every counter-decrementing Add (WaitGroups)
}

// NewEngine returns an empty engine in the given mode.
func NewEngine(mode Mode) *Engine {
	return &Engine{
		mode:   mode,
		slotOf: map[trace.GoID]int{},
		slots:  make([]slotClock, 0, fewSlots),
		resOf:  map[trace.ResID]int{},
		res:    make([]resState, 0, fewSlots),
	}
}

// Reset returns the engine to its initial state (keeping its mode and
// observer), so a campaign can recycle one engine across executions.
// The slot clocks' storage is kept for the next execution's goroutines.
func (en *Engine) Reset() {
	clear(en.slotOf)
	en.slots = en.slots[:0]
	clear(en.resOf)
	en.res = en.res[:0]
	en.events = 0
	en.footprint = 0
}

// Events returns how many clock-ticking events the engine has consumed.
func (en *Engine) Events() int { return en.events }

// ClockOf returns the live clock of g (borrowed — Clone to keep).
func (en *Engine) ClockOf(g trace.GoID) VC { return en.slots[en.slot(g)].vc }

// slot returns g's slot, numbering g (with an empty clock) on first
// sight. A slot past the live ones reuses the storage of the clock that
// slot had before the last Reset.
func (en *Engine) slot(g trace.GoID) int {
	if s, ok := en.slotOf[g]; ok {
		return s
	}
	s := len(en.slots)
	en.slotOf[g] = s
	if s < cap(en.slots) {
		en.slots = en.slots[:s+1]
		en.slots[s] = slotClock{g: g, vc: en.slots[s].vc[:0]}
	} else {
		en.slots = append(en.slots, slotClock{g: g})
	}
	return s
}

// resource returns the state of res, creating it on first sight. The
// pointer is valid until the next resource is created.
func (en *Engine) resource(res trace.ResID) *resState {
	i, ok := en.resOf[res]
	if !ok {
		i = len(en.res)
		en.resOf[res] = i
		en.res = append(en.res, resState{})
	}
	return &en.res[i]
}

// mark records the primitive family a resource was first seen used as;
// a nil state (Res 0, an identity the producer could not synthesize)
// records nothing.
func (r *resState) mark(k resKind) {
	if r != nil && r.kind == kindUnknown {
		r.kind = k
	}
}

// grown returns v extended with zero entries to at least n entries. A
// reallocated clock gets room to double, and at least fewSlots entries,
// so a run's first few goroutines do not regrow every clock.
func grown(v VC, n int) VC {
	if n <= len(v) {
		return v
	}
	if n <= cap(v) {
		k := len(v)
		v = v[:n]
		clear(v[k:])
		return v
	}
	w := make(VC, n, max(2*n, fewSlots))
	copy(w, v)
	return w
}

// fewSlots is the goroutine (and resource) count first allocations are
// sized for: a live clock's minimum capacity, NewEngine's initial
// tables, and BuildDeps's per-event clock budget.
const fewSlots = 8

// relevant reports whether the event type participates in the
// happens-before relation. Pure scheduling noise does not: a forced or
// natural yield changes where the processor went, not what the program
// synchronized on.
func relevant(t trace.Type) bool {
	return t != trace.EvGoSched && t != trace.EvGoPreempt
}

// Event implements trace.Sink: tick the acting goroutine's clock, apply
// the event's synchronization edges, fold the event into the footprint.
func (en *Engine) Event(e trace.Event) { en.apply(&e) }

// apply is Event on a borrowed event. It returns the acting goroutine's
// slot, whose clock is now the event's post-edge clock, or -1 for
// scheduling noise.
func (en *Engine) apply(e *trace.Event) int {
	if !relevant(e.Type) {
		return -1
	}
	// s is the acting goroutine's slot. Numbering a peer may move
	// en.slots, so clocks are always reached through the table, never
	// held across en.slot. r is nil for Res 0: an identity the producer
	// could not synthesize derives no resource edge, since joining
	// through a shared bucket would fabricate ordering between
	// unrelated resources.
	s := en.slot(e.G)
	own := &en.slots[s]
	own.vc = grown(own.vc, s+1)
	own.vc[s]++
	var r *resState
	if e.Res != 0 {
		r = en.resource(e.Res)
	}

	switch e.Type {
	case trace.EvGoCreate:
		// The child's clock replaces whatever the target slot held; its
		// storage is reused unless the creator targets itself.
		p := en.slot(e.Peer)
		var child VC
		if p != s {
			child = en.slots[p].vc[:0]
		}
		parent := en.slots[s].vc
		child = grown(child, max(len(parent), p+1))
		copy(child, parent)
		child[p]++
		en.slots[p].vc = child
	case trace.EvGoUnblock:
		if e.Peer != 0 && e.Peer != e.G {
			if en.mode == Must && r != nil && r.kind == kindLock {
				break // lock handoff: schedule-induced, not a must edge
			}
			p := en.slot(e.Peer)
			en.slots[p].vc.Join(en.slots[s].vc)
		}
	case trace.EvGoBlock:
		switch e.BlockReason() {
		case trace.BlockSend:
			// A parked sender's pre-park clock is what the eventual
			// receiver must inherit; its own ChanSend event is only
			// emitted after it wakes, too late for FIFO alignment.
			r.mark(kindChan)
			en.pushSend(s, r)
		case trace.BlockRecv:
			r.mark(kindChan)
		case trace.BlockMutex, trace.BlockRMutex:
			r.mark(kindLock)
		case trace.BlockCond:
			r.mark(kindCond)
		case trace.BlockWaitGroup:
			r.mark(kindWg)
		}
	case trace.EvChanMake:
		r.mark(kindChan)
	case trace.EvChanSend:
		// Direct handoffs to a parked receiver (Peer != 0) are covered
		// by the EvGoUnblock edge; post-wake sends (Blocked) already
		// pushed their clock at park time.
		r.mark(kindChan)
		if !e.Blocked && e.Peer == 0 {
			en.pushSend(s, r)
		}
	case trace.EvChanRecv:
		// A receiver that parked got its value by direct delivery and
		// its ordering via EvGoUnblock; only completed-in-place
		// receives consume a queued send clock.
		r.mark(kindChan)
		if r == nil {
			break
		}
		if !e.Blocked && e.Aux == 1 {
			en.popSend(s, r)
		}
		if e.Aux == 0 { // receive observed the close
			en.slots[s].vc.Join(r.close)
		}
	case trace.EvSelectCase:
		// Select clauses mirror the plain-channel rules; blocked
		// clauses rely on the EvGoUnblock edge alone.
		r.mark(kindChan)
		if e.Blocked || r == nil {
			break
		}
		if e.Str == "send" && e.Peer == 0 {
			en.pushSend(s, r)
		}
		if e.Str == "recv" {
			en.popSend(s, r)
		}
	case trace.EvChanClose:
		r.mark(kindChan)
		if r != nil {
			r.close = en.slots[s].vc.Clone()
		}
	case trace.EvMutexUnlock, trace.EvRWUnlock, trace.EvRUnlock:
		r.mark(kindLock)
		if en.mode == Full && r != nil {
			r.lock.Join(en.slots[s].vc)
		}
	case trace.EvMutexLock, trace.EvRWLock, trace.EvRLock:
		r.mark(kindLock)
		if en.mode == Full && r != nil {
			en.slots[s].vc.Join(r.lock)
		}
	case trace.EvWgAdd:
		r.mark(kindWg)
		if e.Aux < 0 && r != nil {
			r.wg.Join(en.slots[s].vc)
		}
	case trace.EvWgWait:
		r.mark(kindWg)
		if r != nil {
			en.slots[s].vc.Join(r.wg)
		}
	case trace.EvCondWait, trace.EvCondSignal, trace.EvCondBroadcast:
		r.mark(kindCond)
	}

	vc := en.slots[s].vc
	en.events++
	en.footprint += eventHash(e, vc, en.slots)
	if en.Observer != nil {
		en.Observer(*e, vc)
	}
	return s
}

// pushSend queues a copy of slot s's clock on channel r (a buffered
// send, for the FIFO edge to its receive).
func (en *Engine) pushSend(s int, r *resState) {
	if r != nil {
		r.sends = append(r.sends, en.slots[s].vc.Clone())
	}
}

// popSend joins the oldest queued send clock of channel r into slot s's
// clock (the FIFO edge of a buffered receive).
func (en *Engine) popSend(s int, r *resState) {
	if len(r.sends) > 0 {
		en.slots[s].vc.Join(r.sends[0])
		r.sends = r.sends[1:]
	}
}

// Close implements trace.Sink.
func (en *Engine) Close() {}

// Footprint returns the running HB-equivalence fingerprint: an
// order-independent hash of every consumed event together with its
// vector clock. Two executions of the same program whose traces are
// interleavings of the same happens-before partial order fold to the
// same footprint, whatever total order the scheduler picked; schedule
// noise (yields, preemptions) is invisible to it. The converse holds
// only up to 64-bit hashing, so clients treat footprint equality as
// "already explored", never as a proof of difference.
func (en *Engine) Footprint() uint64 { return en.footprint }

// Load resets the engine and replays a buffered trace through it: the
// post-hoc entry point, byte-equivalent to streaming. Callers that need
// only the footprint recycle one engine this way instead of taking a
// Snapshot per trace.
func (en *Engine) Load(tr *trace.Trace) {
	en.Reset()
	if tr == nil {
		return
	}
	// Concrete-typed loop rather than tr.Replay(en): the devirtualized
	// call on the borrowed event keeps the per-event path allocation-
	// and copy-free.
	for i := range tr.Events {
		en.apply(&tr.Events[i])
	}
}

// Graph is an immutable snapshot of the happens-before state at the end
// of a stream: the final clock of every goroutine plus the footprint.
// Slots and Clocks are parallel: Clocks[s] is the clock of goroutine
// Slots[s], indexed by the same slots.
type Graph struct {
	Mode      Mode
	Slots     []trace.GoID
	Clocks    []VC
	Events    int
	Footprint uint64
}

// Snapshot copies the engine state into a Graph.
func (en *Engine) Snapshot() *Graph {
	g := &Graph{
		Mode:      en.mode,
		Slots:     make([]trace.GoID, len(en.slots)),
		Clocks:    make([]VC, len(en.slots)),
		Events:    en.events,
		Footprint: en.footprint,
	}
	for s, sc := range en.slots {
		g.Slots[s], g.Clocks[s] = sc.g, sc.vc.Clone()
	}
	return g
}

// Goroutines returns the goroutines of the snapshot in sorted order.
func (g *Graph) Goroutines() []trace.GoID {
	out := append([]trace.GoID(nil), g.Slots...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two snapshots carry identical clocks, event
// counts and footprints. The graphs' slot numberings may differ:
// entries are compared goroutine by goroutine.
func (g *Graph) Equal(o *Graph) bool {
	if g.Events != o.Events || g.Footprint != o.Footprint || len(g.Slots) != len(o.Slots) {
		return false
	}
	oslot := make(map[trace.GoID]int, len(o.Slots))
	for s, id := range o.Slots {
		oslot[id] = s
	}
	perm := make([]int, len(g.Slots)) // g's slot -> o's slot
	for s, id := range g.Slots {
		os, ok := oslot[id]
		if !ok {
			return false
		}
		perm[s] = os
	}
	for s := range g.Slots {
		a, b := g.Clocks[s], o.Clocks[perm[s]]
		for k := range g.Slots {
			if a.at(k) != b.at(perm[k]) {
				return false
			}
		}
	}
	return true
}

// FromTrace replays a buffered trace through a fresh engine and returns
// the snapshot — the post-hoc entry point, byte-equivalent to streaming.
func FromTrace(tr *trace.Trace, mode Mode) *Graph {
	en := NewEngine(mode)
	en.Load(tr)
	return en.Snapshot()
}

// ---------------------------------------------------------------------
// Footprint hashing.

// mix is the splitmix64 finalizer: a cheap avalanche so that summing
// per-event hashes (the commutative, order-independent fold) does not
// let structured inputs cancel.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// eventHash folds one event and its post-edge clock into a single
// order-independent contribution. The logical timestamp is excluded (it
// encodes the total order). The clock is hashed as the set of its
// non-zero (goroutine, time) entries, each slot keyed by its GoID and
// summed commutatively, so the value depends neither on slot numbering
// nor on a clock's trailing zeros.
func eventHash(e *trace.Event, vc VC, slots []slotClock) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(e.G))
	h = fnvMix(h, uint64(e.Type))
	h = fnvMix(h, uint64(e.Res))
	h = fnvMix(h, uint64(e.Peer))
	h = fnvMix(h, uint64(e.Aux))
	if e.Blocked {
		h = fnvMix(h, 1)
	}
	h = fnvStr(h, e.File)
	h = fnvMix(h, uint64(e.Line))
	h = fnvStr(h, e.Str)
	var cl uint64
	for s, t := range vc {
		if t != 0 {
			cl += mix(uint64(slots[s].g)*0x9e3779b97f4a7c15 ^ uint64(t))
		}
	}
	h = fnvMix(h, cl)
	return mix(h)
}
