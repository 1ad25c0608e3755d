package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Trace is an execution concurrency trace (ECT): the totally ordered
// sequence of events captured from one program execution.
type Trace struct {
	Events []Event

	// Source describes the producer that emitted the events and the
	// guarantees it makes (see SourceInfo). The zero value means the
	// virtual runtime: use SourceInfo() to read it with that default
	// applied.
	Source SourceInfo
}

// New returns an empty trace with room for n events.
func New(n int) *Trace {
	return &Trace{Events: make([]Event, 0, n)}
}

// Append adds an event to the end of the trace.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Validate checks the well-formedness invariants of an ECT:
// timestamps strictly increase, every event has a valid type and a
// goroutine, and every goroutine other than the main goroutine is created
// (EvGoCreate with Peer=g) before its first own event. For sources
// without CapCreateObserved (window traces), a goroutine may instead be
// introduced by its own EvGoStart — goroutines legitimately pre-exist
// such a trace.
func (t *Trace) Validate() error {
	var lastTs int64
	windowed := !t.SourceInfo().Has(CapCreateObserved)
	created := map[GoID]bool{1: true} // main goroutine exists implicitly
	started := map[GoID]bool{}
	for i, e := range t.Events {
		if !e.Type.Valid() {
			return fmt.Errorf("trace: event %d has invalid type %d", i, e.Type)
		}
		if e.G <= 0 {
			return fmt.Errorf("trace: event %d (%s) has no goroutine", i, e.Type)
		}
		if e.Ts <= lastTs {
			return fmt.Errorf("trace: event %d (%s) timestamp %d not after %d", i, e.Type, e.Ts, lastTs)
		}
		lastTs = e.Ts
		if e.Type == EvGoCreate {
			if e.Peer == 0 {
				return fmt.Errorf("trace: event %d GoCreate without child", i)
			}
			if created[e.Peer] {
				return fmt.Errorf("trace: goroutine g%d created twice", e.Peer)
			}
			created[e.Peer] = true
		}
		if windowed && e.Type == EvGoStart {
			created[e.G] = true
		}
		if !created[e.G] {
			return fmt.Errorf("trace: event %d (%s) by g%d before its creation", i, e.Type, e.G)
		}
		if started[e.G] && e.Type == EvGoStart {
			return fmt.Errorf("trace: goroutine g%d started twice", e.G)
		}
		if e.Type == EvGoStart {
			started[e.G] = true
		}
	}
	return nil
}

// Goroutines returns the set of goroutine IDs appearing in the trace,
// sorted ascending.
func (t *Trace) Goroutines() []GoID {
	seen := map[GoID]bool{}
	for _, e := range t.Events {
		seen[e.G] = true
		if e.Type == EvGoCreate {
			seen[e.Peer] = true
		}
	}
	ids := make([]GoID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ByGoroutine returns the per-goroutine projections of the trace, preserving
// the total order within each goroutine. The result is a bare map: ranging
// over it is nondeterministic, so renderers must iterate in Goroutines()
// order instead.
func (t *Trace) ByGoroutine() map[GoID][]Event {
	m := map[GoID][]Event{}
	for _, e := range t.Events {
		m[e.G] = append(m[e.G], e)
	}
	return m
}

// Filter returns a new trace holding only the events for which keep returns
// true, preserving order.
func (t *Trace) Filter(keep func(Event) bool) *Trace {
	out := New(len(t.Events))
	for _, e := range t.Events {
		if keep(e) {
			out.Append(e)
		}
	}
	return out
}

// CountByType tallies events per type.
func (t *Trace) CountByType() map[Type]int {
	m := map[Type]int{}
	for _, e := range t.Events {
		m[e.Type]++
	}
	return m
}

// String renders the whole trace, one event per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrEmpty is returned by operations that need a non-empty trace.
var ErrEmpty = errors.New("trace: empty trace")
