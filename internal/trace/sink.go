package trace

import "sync"

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

// Stopper is the optional early-stop side of a sink: an online analysis
// (a streaming detector) reports that its verdict is decided and the
// execution may halt. The scheduler polls StopRequested after each
// delivered event and stops the world at the next dispatch boundary.
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
// buffer can be reused by a later execution (see Pool).
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

// StopRequested implements Stopper: the fan-out requests a stop as soon
// as any member that supports early-stop does.
func (m MultiSink) StopRequested() bool {
	for _, s := range m {
		if st, ok := s.(Stopper); ok && st.StopRequested() {
			return true
		}
	}
	return false
}

// Pool recycles trace buffers across the executions of a campaign. A
// *Trace drawn from a Pool is the "pooled-buffer sink": attached to one
// execution (as Options.ECT or an extra sink) it records into storage a
// previous execution already grew, so a thousand-run campaign settles
// into zero per-run event allocation after the first few runs. Pools are
// safe for concurrent use by parallel campaign workers.
type Pool struct {
	mu   sync.Mutex
	free []*Trace
	gets int64 // total Get calls
	hits int64 // Gets served from a recycled buffer
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns an empty trace, reusing a recycled buffer when one is
// available.
func (p *Pool) Get() *Trace {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gets++
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		t.Reset()
		p.hits++
		return t
	}
	return New(1024)
}

// Stats reports the pool's lifetime Get count and how many of those
// reused a recycled buffer (telemetry reads the delta per campaign).
func (p *Pool) Stats() (gets, hits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits
}

// Put recycles a trace's storage for a future Get. The caller must not
// use t (or slices into its events) afterwards.
func (p *Pool) Put(t *Trace) {
	if t == nil {
		return
	}
	t.Reset()
	p.mu.Lock()
	p.free = append(p.free, t)
	p.mu.Unlock()
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
