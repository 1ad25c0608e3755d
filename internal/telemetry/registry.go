// Package telemetry is the observability substrate of the campaign
// pipeline: a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms), a span clock for phase timing, and an ECT
// event sink that rides the trace.Sink chain.
//
// The registry is built for a hot deterministic pipeline: metric handles
// are plain pointers obtained once, every update is a single atomic
// operation guarded by the registry's enabled flag (one atomic load and
// a predictable branch when disabled), and nothing in this package ever
// draws a scheduling decision or perturbs the virtual runtime — record
// and replay stay byte-identical with telemetry on or off. Instrumented
// code either checks Enabled() once per run and batches its updates, or
// calls the handles directly and lets the guard absorb the call.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add increments the counter by n when the owning registry is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions.
type Gauge struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Set stores v when the owning registry is enabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n when the owning registry is enabled.
func (g *Gauge) Add(n int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: bounds are inclusive upper
// bucket edges (sorted ascending) with an implicit overflow bucket. The
// fixed layout keeps Observe allocation-free and snapshot/merge trivial.
type Histogram struct {
	on     *atomic.Bool
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
}

// Observe records one value when the owning registry is enabled.
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.on.Load() {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram. P50/P95/P99 are
// the bucket-resolution quantile summaries (see Quantile) every
// exporter shares — the JSON dump, the Prometheus text endpoint, and
// the latency oracles all report the same numbers.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	P50    int64   `json:"p50"`
	P95    int64   `json:"p95"`
	P99    int64   `json:"p99"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.P50 = s.Quantile(0.50)
		s.P95 = s.Quantile(0.95)
		s.P99 = s.Quantile(0.99)
	}
	return s
}

// QuantileExact returns the exact nearest-rank q-quantile (0 < q <= 1)
// of raw samples: the smallest value whose rank is >= ceil(q*n). The
// slice is sorted in place. This is the reference the bucketed
// HistSnapshot.Quantile approximates, and what the latency oracles use
// when they hold every sample.
func QuantileExact(samples []int64, q float64) int64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(q*float64(n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1]
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts:
// the upper bound of the bucket holding the rank, clamped to the observed
// [Min, Max] so p100 is exact and estimates never leave the data range.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			var est int64
			if i < len(s.Bounds) {
				est = s.Bounds[i]
			} else {
				est = s.Max
			}
			if est < s.Min {
				est = s.Min
			}
			if est > s.Max {
				est = s.Max
			}
			return est
		}
	}
	return s.Max
}

// Registry holds named metrics. Handles are created on first use and
// cached; lookups take the registry mutex, updates are lock-free.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    spanLog
}

// New returns an empty, disabled registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Enable turns metric collection on.
func (r *Registry) Enable() { r.enabled.Store(true) }

// Disable turns metric collection off; existing values are retained.
func (r *Registry) Disable() { r.enabled.Store(false) }

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{on: &r.enabled}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{on: &r.enabled}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later bounds are ignored). Bounds must be
// sorted ascending; nil selects DurationBuckets.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if bounds == nil {
			bounds = DurationBuckets
		}
		h = NewHistogram(&r.enabled, bounds)
		r.hists[name] = h
	}
	return h
}

// NewHistogram builds a standalone histogram gated on the given flag
// (pass an always-true flag for ungated use, e.g. report-side
// aggregation over already-collected samples).
func NewHistogram(on *atomic.Bool, bounds []int64) *Histogram {
	h := &Histogram{
		on:     on,
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Reset zeroes every metric and clears the span log, keeping the handles
// (callers holding metric pointers stay valid). Benchmarks use it to
// separate phases.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
		h.min.Store(math.MaxInt64)
		h.max.Store(math.MinInt64)
	}
	r.spans.reset()
}

// Snapshot is a point-in-time copy of every metric in a registry, the
// shape the -metrics JSON dump serializes. Map keys marshal in sorted
// order, so the export is deterministic for deterministic values.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Spans      []Span                  `json:"spans,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
		Spans:      r.spans.snapshot(),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding snapshot: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DurationBuckets are the default bounds for wall-time histograms, in
// nanoseconds: 1µs to 30s in a 1-2-5 ladder.
var DurationBuckets = []int64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000,
	10_000_000_000, 30_000_000_000,
}

// CountBuckets are the default bounds for event/op-count histograms:
// 1 to 1M in a 1-2-5 ladder.
var CountBuckets = []int64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000, 1_000_000,
}
