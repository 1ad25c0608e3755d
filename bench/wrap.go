package bench

// Timing wrappers. The benchmark times layers from outside the program:
// it wraps the detectors and sinks it hands to the public entry points
// and times every call into them. A wrapper must expose exactly the
// optional interfaces of the value it wraps. The virtual runtime and the
// campaign engine switch on them (block delivery, per-event delivery for
// Unbatched sinks, early stop, source announcements, stream reuse), so a
// wrapper that hid or added one would change the run it measures.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goat/internal/detect"
	"goat/internal/sim"
	"goat/internal/trace"
)

// Optional-interface bits, as reported by facets.
const (
	facetBatch      = 1 << iota // trace.BatchSink
	facetUnbatched              // trace.Unbatched
	facetStopper                // trace.Stopper
	facetSource                 // trace.SourceAware
	facetResettable             // detect.Resettable
	facetEarlyStop              // detect.EarlyStopper
)

// facets reports which optional sink and stream interfaces v implements.
func facets(v any) int {
	f := 0
	if _, ok := v.(trace.BatchSink); ok {
		f |= facetBatch
	}
	if _, ok := v.(trace.Unbatched); ok {
		f |= facetUnbatched
	}
	if _, ok := v.(trace.Stopper); ok {
		f |= facetStopper
	}
	if _, ok := v.(trace.SourceAware); ok {
		f |= facetSource
	}
	if _, ok := v.(detect.Resettable); ok {
		f |= facetResettable
	}
	if _, ok := v.(detect.EarlyStopper); ok {
		f |= facetEarlyStop
	}
	return f
}

var epoch = time.Now()

// clock reads the monotonic clock only (time.Since on a monotonic base
// skips the wall-clock read time.Now also makes).
func clock() int64 { return int64(time.Since(epoch)) }

// since returns the time from t to now, less the cost of the clock reads.
func since(t int64) int64 { return clock() - t - clockCost() }

var (
	clockCostOnce sync.Once
	clockCostNs   int64
)

// clockCost is the median cost of an empty timed interval, subtracted
// from every timed call so short sink calls are not charged for the
// clock reads around them.
func clockCost() int64 {
	clockCostOnce.Do(func() {
		samples := make([]int64, 1001)
		for i := range samples {
			t := clock()
			samples[i] = clock() - t
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		clockCostNs = samples[len(samples)/2]
	})
	return clockCostNs
}

// layerAcc accumulates one layer's cost over every sink or stream
// instance wrapped for it. Streams of parallel campaign workers flush
// into the same accumulator, hence the atomics.
type layerAcc struct {
	ns       atomic.Int64 // inside Event, EventBatch and Close
	events   atomic.Int64
	calls    atomic.Int64 // delivery calls: one per block, or one per event
	finishNs atomic.Int64 // inside Finish, Reset and post-hoc Detect
	runs     atomic.Int64 // Finish and post-hoc Detect calls
}

// sampleEvery is the per-event sampling stride: per-event deliveries
// (Unbatched sinks) cost a few nanoseconds, so timing each one would
// cost more than the call itself. One call in sampleEvery is timed and
// the total is extrapolated from the sampled mean.
const sampleEvery = 32

// timedSink times the calls into one sink instance. It is used by one
// execution at a time (a trace.Sink is driven by a single scheduler
// loop), so its tallies are plain fields, flushed into the shared
// accumulator when the run closes the sink.
type timedSink struct {
	inner trace.Sink
	acc   *layerAcc

	batchNs, events, calls    int64
	evCalls, evSampled, evSNs int64
}

func (s *timedSink) Event(e trace.Event) {
	s.events++
	s.calls++
	s.evCalls++
	if s.evCalls%sampleEvery != 1 {
		s.inner.Event(e)
		return
	}
	t := clock()
	s.inner.Event(e)
	s.evSNs += since(t)
	s.evSampled++
}

func (s *timedSink) eventBatch(evs []trace.Event) {
	t := clock()
	s.inner.(trace.BatchSink).EventBatch(evs)
	s.batchNs += since(t)
	s.events += int64(len(evs))
	s.calls++
}

func (s *timedSink) Close() {
	t := clock()
	s.inner.Close()
	s.batchNs += since(t)
	s.flush()
}

// flush moves the instance tallies into the accumulator.
func (s *timedSink) flush() {
	ns := s.batchNs
	if s.evSampled > 0 {
		ns += s.evSNs * s.evCalls / s.evSampled
	}
	if ns < 0 {
		ns = 0
	}
	s.acc.ns.Add(ns)
	s.acc.events.Add(s.events)
	s.acc.calls.Add(s.calls)
	*s = timedSink{inner: s.inner, acc: s.acc}
}

// timedStream adds the detector side of a stream: Finish, and the
// lifecycle calls charged with it.
type timedStream struct {
	timedSink
	stream detect.Stream
}

func (s *timedStream) Finish(r *sim.Result) detect.Detection {
	t := clock()
	d := s.stream.Finish(r)
	s.acc.finishNs.Add(since(t))
	s.acc.runs.Add(1)
	return d
}

func (s *timedStream) reset() {
	t := clock()
	s.stream.(detect.Resettable).Reset()
	s.acc.finishNs.Add(since(t))
}

func (s *timedStream) setSource(src trace.SourceInfo) { s.stream.(trace.SourceAware).SetSource(src) }
func (s *timedStream) stopRequested() bool            { return s.stream.(trace.Stopper).StopRequested() }
func (s *timedStream) enableEarlyStop()               { s.stream.(detect.EarlyStopper).EnableEarlyStop() }

// One wrapper type per optional-interface set in use. Adding a detector
// or sink with a new set means adding its type here; wrapSink and
// wrapStream refuse sets they have no type for.

type batchSink struct{ *timedSink }

func (s batchSink) EventBatch(evs []trace.Event) { s.eventBatch(evs) }

type unbatchedSink struct{ *timedSink }

func (unbatchedSink) Unbatched() {}

// batchResetStream wraps result-only streams (builtin, goleak).
type batchResetStream struct{ *timedStream }

func (s batchResetStream) EventBatch(evs []trace.Event) { s.eventBatch(evs) }
func (s batchResetStream) Reset()                       { s.reset() }

// batchSourceResetStream wraps the windowed leak stream.
type batchSourceResetStream struct{ *timedStream }

func (s batchSourceResetStream) EventBatch(evs []trace.Event)   { s.eventBatch(evs) }
func (s batchSourceResetStream) Reset()                         { s.reset() }
func (s batchSourceResetStream) SetSource(src trace.SourceInfo) { s.setSource(src) }

// fullStream wraps the GoAT and LockDL streams.
type fullStream struct{ *timedStream }

func (s fullStream) EventBatch(evs []trace.Event)   { s.eventBatch(evs) }
func (s fullStream) Reset()                         { s.reset() }
func (s fullStream) SetSource(src trace.SourceInfo) { s.setSource(src) }
func (s fullStream) StopRequested() bool            { return s.stopRequested() }
func (s fullStream) EnableEarlyStop()               { s.enableEarlyStop() }

// wrapSink returns a timing wrapper for a plain sink.
func wrapSink(s trace.Sink, acc *layerAcc) (trace.Sink, error) {
	ts := &timedSink{inner: s, acc: acc}
	switch f := facets(s); f {
	case facetBatch:
		return batchSink{ts}, nil
	case facetUnbatched:
		return unbatchedSink{ts}, nil
	default:
		return nil, fmt.Errorf("bench: no timing wrapper for sink %T (optional interfaces %06b)", s, f)
	}
}

// wrapStream returns a timing wrapper for a detector stream.
func wrapStream(s detect.Stream, acc *layerAcc) (detect.Stream, error) {
	ts := &timedStream{timedSink: timedSink{inner: s, acc: acc}, stream: s}
	switch f := facets(s); f {
	case facetBatch | facetResettable:
		return batchResetStream{ts}, nil
	case facetBatch | facetSource | facetResettable:
		return batchSourceResetStream{ts}, nil
	case facetBatch | facetStopper | facetSource | facetResettable | facetEarlyStop:
		return fullStream{ts}, nil
	default:
		return nil, fmt.Errorf("bench: no timing wrapper for stream %T (optional interfaces %06b)", s, f)
	}
}

// timedDetector times a detector's post-hoc path.
type timedDetector struct {
	inner detect.Detector
	acc   *layerAcc
}

func (d timedDetector) Name() string { return d.inner.Name() }

func (d timedDetector) Detect(r *sim.Result) detect.Detection {
	t := clock()
	det := d.inner.Detect(r)
	d.acc.finishNs.Add(since(t))
	d.acc.runs.Add(1)
	return det
}

// timedStreaming is timedDetector for detectors with an online form.
type timedStreaming struct{ timedDetector }

// NewStream implements detect.Streaming. The engine calls it mid-cell,
// where an error has no way out; the benchmark checks every detector it
// wraps at wrap time (wrapDetector), so a failure here is a bug.
func (d timedStreaming) NewStream() detect.Stream {
	s, err := wrapStream(d.inner.(detect.Streaming).NewStream(), d.acc)
	if err != nil {
		panic(err)
	}
	return s
}

// wrapDetector returns a timing wrapper that is Streaming exactly when
// the detector is, after checking that its streams can be wrapped.
func wrapDetector(d detect.Detector, acc *layerAcc) (detect.Detector, error) {
	sd, ok := d.(detect.Streaming)
	if !ok {
		return timedDetector{d, acc}, nil
	}
	if _, err := wrapStream(sd.NewStream(), &layerAcc{}); err != nil {
		return nil, err
	}
	return timedStreaming{timedDetector{d, acc}}, nil
}
