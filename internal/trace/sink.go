package trace

// Sink consumes a stream of ECT events as an execution produces them.
//
// The virtual runtime stamps each event with its logical timestamp before
// delivery, so a sink observes exactly the sequence a buffered *Trace
// would record. Event is called from the scheduler loop (single-threaded
// within one execution); Close is called once, after the world has
// stopped and no further events will arrive.
type Sink interface {
	Event(e Event)
	Close()
}

// Stopper is a sink's former early-stop side. Nothing in this module
// implements or polls it: the benchmark's timing wrappers (bench/wrap.go)
// still name it, and the next change to the benchmark deletes both.
type Stopper interface {
	StopRequested() bool
}

// BatchSink is the optional block-delivery side of a sink. A producer
// that buffers emission (the virtual runtime, for every sink that is not
// Unbatched) hands whole event blocks to sinks implementing it — one
// interface call per block instead of one per event — and falls back to
// per-event Event calls otherwise. The block slice is owned by the
// producer and reused after the call returns; implementations must not
// retain it. EventBatch(evs) must be observably identical to calling
// Event for each element in order.
type BatchSink interface {
	Sink
	EventBatch(evs []Event)
}

// Unbatched marks a sink that must observe every event the moment it is
// emitted, never a block boundary later. The flight recorder is the
// canonical case: a watchdog snapshots it while a hung run is still in
// flight, so events parked in an emission buffer would be invisible
// exactly when they matter most. Producers deliver to Unbatched sinks
// per event, never in blocks.
type Unbatched interface {
	Unbatched()
}

// Event implements Sink: a *Trace is the canonical buffering sink.
func (t *Trace) Event(e Event) { t.Append(e) }

// EventBatch implements BatchSink.
func (t *Trace) EventBatch(evs []Event) { t.Events = append(t.Events, evs...) }

// Close implements Sink.
func (t *Trace) Close() {}

// Reset truncates the trace in place, keeping the backing array so the
// buffer can be reused by a later execution (see sim.Options.ECT).
func (t *Trace) Reset() { t.Events = t.Events[:0] }

// MultiSink fans one event stream out to several sinks, in order.
type MultiSink []Sink

// NewMultiSink bundles sinks into one fan-out sink.
func NewMultiSink(sinks ...Sink) MultiSink { return MultiSink(sinks) }

// Event implements Sink.
func (m MultiSink) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// EventBatch implements BatchSink, forwarding the block to members that
// take blocks and replaying it per-event to members that do not.
func (m MultiSink) EventBatch(evs []Event) {
	for _, s := range m {
		if bs, ok := s.(BatchSink); ok {
			bs.EventBatch(evs)
			continue
		}
		for i := range evs {
			s.Event(evs[i])
		}
	}
}

// Close implements Sink.
func (m MultiSink) Close() {
	for _, s := range m {
		s.Close()
	}
}

// RingSink is the flight recorder: a fixed-capacity ring buffer that
// keeps only the most recent events of an execution, for bounded-memory
// observation of arbitrarily long runs. When the ring is full, each new
// event overwrites the oldest one.
type RingSink struct {
	buf     []Event
	next    int // index the next event is written at
	full    bool
	dropped int64 // events overwritten so far
}

// NewRingSink returns a flight recorder holding the last n events
// (n >= 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]Event, 0, n)}
}

// Event implements Sink.
func (r *RingSink) Event(e Event) {
	if !r.full && len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		if len(r.buf) == cap(r.buf) {
			r.full = true
		}
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
	r.dropped++
}

// Close implements Sink.
func (r *RingSink) Close() {}

// Unbatched implements the trace.Unbatched marker: the recorder's whole
// purpose is observing runs that never finish, so its window must stay
// current with emission, not with block flushes.
func (r *RingSink) Unbatched() {}

// Len returns how many events the recorder currently holds.
func (r *RingSink) Len() int { return len(r.buf) }

// Dropped returns how many events have been overwritten.
func (r *RingSink) Dropped() int64 { return r.dropped }

// Reset empties the recorder so the next event starts a fresh window
// (used between campaign runs sharing one flight recorder).
func (r *RingSink) Reset() {
	r.buf = r.buf[:0]
	r.next = 0
	r.full = false
	r.dropped = 0
}

// Snapshot returns the recorded window as a trace, oldest event first.
// The returned trace is a copy; the recorder keeps running.
func (r *RingSink) Snapshot() *Trace {
	out := New(len(r.buf))
	if r.full && r.next > 0 {
		out.Events = append(out.Events, r.buf[r.next:]...)
		out.Events = append(out.Events, r.buf[:r.next]...)
	} else {
		out.Events = append(out.Events, r.buf...)
	}
	return out
}
