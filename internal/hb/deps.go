package hb

import (
	"goat/internal/trace"
)

// This file is the dependence layer the DPOR explorer builds on: a
// per-event view of the happens-before relation (one clock per trace
// event instead of one per goroutine), a static dependence predicate over
// event pairs, and a trace-derived enabledness timeline for co-enabled
// checks.
//
// Dependence here is the DPOR notion, not the HB one: two events are
// *dependent* when executing them in the other order could change the
// program's behavior — they touch the same resource non-commutatively, or
// one is a lifecycle action (create/unblock) aimed at the other's
// goroutine. Dependence is a static over-approximation (claiming a
// dependence that isn't there costs extra runs; claiming an independence
// that isn't there loses schedules), while *concurrent* is the dynamic
// question answered by the per-event clocks. A pair that is both
// dependent and Must-concurrent is a candidate reversal: another schedule
// could execute the pair in the opposite order and the program could tell
// the difference. Those are exactly the pairs the DPOR explorer seeds
// backtrack points for.

// readOnly reports that the event only observes its resource: swapping
// two observers can never change program behavior.
func readOnly(e *trace.Event) bool {
	switch e.Type {
	case trace.EvVarRead, trace.EvRLock, trace.EvRUnlock:
		return true
	}
	return false
}

// Dependent reports whether reordering the two events could change the
// execution's behavior. The relation is symmetric and intentionally
// over-approximate: any same-resource pair conflicts unless both sides
// are pure observers, and goroutine lifecycle events (create, unblock)
// conflict with every event of the goroutine they target. Events of the
// same goroutine are reported independent — program order is not a race,
// it is fixed.
func Dependent(a, b trace.Event) bool { return dependent(&a, &b) }

func dependent(a, b *trace.Event) bool {
	if a.G == b.G {
		return false
	}
	if !relevant(a.Type) || !relevant(b.Type) {
		return false
	}
	// Lifecycle edges: creating or waking a goroutine conflicts with
	// everything that goroutine does — its ops cannot drift before it.
	if lifecycle(a) && a.Peer == b.G || lifecycle(b) && b.Peer == a.G {
		return true
	}
	if a.Res == 0 || a.Res != b.Res {
		return false
	}
	if readOnly(a) && readOnly(b) {
		return false
	}
	return true
}

// lifecycle reports a create or unblock: an event aimed at the goroutine
// in its Peer field.
func lifecycle(e *trace.Event) bool {
	return e.Type == trace.EvGoCreate || e.Type == trace.EvGoUnblock
}

// Deps is the per-event dependence view of one trace: every event paired
// with the acting goroutine's vector clock at that event (post-edge), an
// enabledness timeline for co-enabled queries, and the footprint of the
// replay. Build with BuildDeps; indices are positions in Events.
type Deps struct {
	Mode      Mode
	Events    []trace.Event
	Clocks    []VC // post-edge clock per event; nil for scheduling noise
	Footprint uint64

	// The replay engine's slot table: gslot[i] is the slot of event i's
	// goroutine (for events with a clock).
	slotOf map[trace.GoID]int
	gslot  []int32

	// statusIdx/statusOn are per-goroutine enabledness change points, in
	// trace order: statusOn[g][k] is the goroutine's enabled state from
	// event statusIdx[g][k] (exclusive: the state *after* that event) on.
	statusIdx map[trace.GoID][]int
	statusOn  map[trace.GoID][]bool
}

// BuildDeps replays a buffered trace through a fresh engine in the given
// mode and captures the per-event clocks and the enabledness timeline.
func BuildDeps(tr *trace.Trace, mode Mode) *Deps {
	d := &Deps{
		Mode:      mode,
		statusIdx: map[trace.GoID][]int{},
		statusOn:  map[trace.GoID][]bool{},
	}
	if tr == nil {
		return d
	}
	n := len(tr.Events)
	d.Events = tr.Events
	d.Clocks = make([]VC, n)
	d.gslot = make([]int32, n)
	// The per-event clocks are carved from one arena. A clock has at
	// most one entry per goroutine, and in a simulator trace every
	// goroutine but the first is introduced by an EvGoCreate, so
	// events × (1 + creates) bounds it; the first block takes at most
	// fewSlots entries per event. When a block fills (more goroutines,
	// or goroutines that predate the trace), the next one is twice as
	// large and earlier clocks stay where they are.
	width := 1
	for i := range tr.Events {
		if tr.Events[i].Type == trace.EvGoCreate {
			width++
		}
	}
	arena := make([]int64, 0, n*min(width, fewSlots))
	en := NewEngine(mode)
	for i := range tr.Events {
		e := &tr.Events[i]
		if s := en.apply(e); s >= 0 {
			vc := en.slots[s].vc
			if cap(arena)-len(arena) < len(vc) {
				arena = make([]int64, 0, max(2*cap(arena), len(vc)))
			}
			k := len(arena)
			arena = append(arena, vc...)
			d.Clocks[i] = arena[k:len(arena):len(arena)]
			d.gslot[i] = int32(s)
		}
		d.recordStatus(i, e)
	}
	d.Footprint = en.Footprint()
	d.slotOf = en.slotOf
	return d
}

// recordStatus folds one event into the enabledness timeline.
func (d *Deps) recordStatus(i int, e *trace.Event) {
	switch e.Type {
	case trace.EvGoCreate:
		d.mark(i, e.Peer, true) // child runnable from creation
	case trace.EvGoStart:
		if len(d.statusIdx[e.G]) == 0 {
			d.mark(i, e.G, true) // main has no create event
		}
	case trace.EvGoBlock:
		d.mark(i, e.G, false)
	case trace.EvGoUnblock:
		if e.Peer != 0 {
			d.mark(i, e.Peer, true)
		}
	case trace.EvGoEnd, trace.EvGoPanic:
		d.mark(i, e.G, false)
	}
}

func (d *Deps) mark(i int, g trace.GoID, on bool) {
	d.statusIdx[g] = append(d.statusIdx[g], i)
	d.statusOn[g] = append(d.statusOn[g], on)
}

// Len returns the number of trace events covered.
func (d *Deps) Len() int { return len(d.Events) }

// EnabledAt reports whether goroutine g was enabled (created, not
// blocked, not ended) in the state just before event i executed.
func (d *Deps) EnabledAt(i int, g trace.GoID) bool {
	idx, on := d.statusIdx[g], d.statusOn[g]
	enabled := false
	for k := 0; k < len(idx) && idx[k] < i; k++ {
		enabled = on[k]
	}
	return enabled
}

// Concurrent reports whether events i and j are unordered by the
// happens-before relation of the build mode. Scheduling-noise events
// carry no clock and are never concurrent with anything.
func (d *Deps) Concurrent(i, j int) bool {
	ci, cj := d.Clocks[i], d.Clocks[j]
	if ci == nil || cj == nil || d.Events[i].G == d.Events[j].G {
		return false
	}
	return ci.Concurrent(cj)
}

// Racing reports whether events i and j are a candidate reversal: a
// dependent pair left unordered by the (Must-mode) happens-before
// relation, so another schedule could execute them in the other order.
func (d *Deps) Racing(i, j int) bool {
	return dependent(&d.Events[i], &d.Events[j]) && d.Concurrent(i, j)
}

// CoEnabled refines Racing with the enabledness timeline: the later
// event's goroutine must have been enabled at the earlier event's
// pre-state, otherwise no scheduler choice at that point could have run
// it first. (A goroutine not yet created is *not* co-enabled — its
// creation itself is the dependence that orders the pair.)
func (d *Deps) CoEnabled(i, j int) bool {
	if j < i {
		i, j = j, i
	}
	return d.EnabledAt(i, d.Events[j].G)
}

// RacingPairs returns every racing pair (i < j), in trace order. Only
// pairs that can be Dependent are compared: the later events of each
// event's resource, and a create or unblock against the later events of
// the goroutine it targets (or, from the target's side, the later
// creates and unblocks aimed at it). Schedules deep in a DPOR search run
// to hundreds of events (kubernetes_11298 reaches 519), where comparing
// every pair would dominate the search; the candidates follow the
// trace's resource and goroutine structure instead.
func (d *Deps) RacingPairs() [][2]int {
	n, nslots := len(d.Events), len(d.slotOf)
	none := int32(n)
	// Successor chains, linked back to front over the clocked events so
	// each starts at the first candidate after i: nextRes continues an
	// event's resource, nextG its goroutine, nextLife the creates and
	// unblocks aimed at the same goroutine. peerHead[i] enters the
	// nextG chain of i's target, lifeHead[i] the nextLife chain aimed
	// at i's goroutine; firstG and firstLife are the per-slot chain
	// heads while linking.
	links := make([]int32, 5*n+2*nslots)
	for k := range links {
		links[k] = none
	}
	nextRes, nextG, nextLife := links[:n], links[n:2*n], links[2*n:3*n]
	peerHead, lifeHead := links[3*n:4*n], links[4*n:5*n]
	firstG, firstLife := links[5*n:5*n+nslots], links[5*n+nslots:]
	lastRes := map[trace.ResID]int32{}
	for i := n - 1; i >= 0; i-- {
		if d.Clocks[i] == nil {
			continue
		}
		e := &d.Events[i]
		g := d.gslot[i]
		lifeHead[i] = firstLife[g]
		if lifecycle(e) {
			if p, ok := d.slotOf[e.Peer]; ok {
				peerHead[i] = firstG[p]
				nextLife[i], firstLife[p] = firstLife[p], int32(i)
			}
		}
		nextG[i], firstG[g] = firstG[g], int32(i)
		if e.Res != 0 {
			if k, ok := lastRes[e.Res]; ok {
				nextRes[i] = k
			}
			lastRes[e.Res] = int32(i)
		}
	}

	var out [][2]int
	for i := 0; i < n; i++ {
		if d.Clocks[i] == nil {
			continue
		}
		a, b, c := nextRes[i], peerHead[i], lifeHead[i]
		for {
			j := min(a, b, c)
			if j == none {
				break
			}
			if d.Racing(i, int(j)) {
				out = append(out, [2]int{i, int(j)})
			}
			if a == j {
				a = nextRes[a]
			}
			if b == j {
				b = nextG[b]
			}
			if c == j {
				c = nextLife[c]
			}
		}
	}
	return out
}
