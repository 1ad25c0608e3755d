// Slow-leak detection over goroutine-census windows.
//
// The blocked-at-end detectors (Goat, goleak) judge a settled final
// state; a service that strands one goroutine per thousand requests
// looks healthy to them for hours. The leak detector instead watches
// the *population*: it takes a census of stranded-looking goroutines at
// fixed event-count boundaries and raises a verdict when the census
// grows monotonically past its steady-state baseline. Provenance
// identity (trace.StrandSig) and the long-lived-worker suppression rule
// are shared with ingest.StrandedGoroutines, so the same stream runs
// unchanged on virtual-runtime traces and ingested native captures and
// reports leaks by the same signatures.
package detect

import (
	"fmt"
	"sort"

	"goat/internal/sim"
	"goat/internal/trace"
)

// Leak is the windowed slow-leak detector. The zero value uses the
// defaults below; it is not part of the paper's Table IV lineup (All),
// it extends it for service-shaped workloads.
type Leak struct {
	// Window is the census interval in events (default 4096). Smaller
	// windows react faster but see more transient congestion.
	Window int
	// MinGrowth is the census growth (strands beyond the baseline)
	// required to call a leak (default 3) — one stray stranded
	// goroutine is a bug report for Goat, not a population trend.
	MinGrowth int
}

const (
	defaultLeakWindow    = 4096
	defaultLeakMinGrowth = 3
)

// Name implements Detector.
func (Leak) Name() string { return "leak" }

// Detect implements Detector: the post-hoc entry point replays the
// buffered trace through the streaming core.
func (l Leak) Detect(r *sim.Result) Detection {
	s := l.NewStream()
	if r.Trace != nil {
		_ = r.Trace.Replay(s)
	}
	return s.Finish(r)
}

// NewStream implements Streaming.
func (l Leak) NewStream() Stream {
	w := l.Window
	if w <= 0 {
		w = defaultLeakWindow
	}
	mg := l.MinGrowth
	if mg <= 0 {
		mg = defaultLeakMinGrowth
	}
	d := &LeakStream{window: int64(w), minGrowth: mg, gs: map[trace.GoID]*leakG{}}
	d.reset()
	return d
}

// leakG is the per-goroutine provenance the census keys on — the
// streaming reconstruction of ingest.GInfo.
type leakG struct {
	name       string
	createFile string
	createLine int
	system     bool
	orphan     bool // introduced itself (creation not observed)
	wakes      int
	blocked    bool
	reason     trace.BlockReason
	file       string // block site, while blocked
	line       int
	blockedAt  int64 // event index of the current park
}

// LeakStream is the online census core. Goroutines that end are dropped
// immediately, so the tracked set is the live population — bounded by
// the program's actual goroutine count, not the trace length.
type LeakStream struct {
	window    int64
	minGrowth int

	gs     map[trace.GoID]*leakG
	events int64

	census  []int          // stale-strand count at each window boundary
	baseSig map[string]int // per-signature census at the baseline boundary (window 2)
	lastSig map[string]int // per-signature census at the latest boundary

	windowed bool // producer lacks CapCreateObserved: goroutines may introduce themselves
}

// SetSource implements trace.SourceAware.
func (d *LeakStream) SetSource(src trace.SourceInfo) {
	d.windowed = !src.Has(trace.CapCreateObserved)
}

// Reset implements Resettable.
func (d *LeakStream) Reset() {
	d.reset()
	d.windowed = false
}

func (d *LeakStream) reset() {
	clear(d.gs)
	d.gs[1] = &leakG{name: "main"}
	d.events = 0
	d.census = d.census[:0]
	d.baseSig = nil
	d.lastSig = nil
}

// Event implements trace.Sink.
func (d *LeakStream) Event(e trace.Event) {
	d.events++
	switch e.Type {
	case trace.EvGoCreate:
		child := &leakG{name: e.Str, createFile: e.File, createLine: e.Line, system: e.Aux == 1}
		if p := d.gs[e.G]; p != nil && p.system {
			child.system = true // system-ness is inherited, like gtree's app bit
		}
		d.gs[e.Peer] = child
	case trace.EvGoStart:
		g := d.gs[e.G]
		if g == nil {
			// Self-introduction: the window contract (native traces) or
			// the main goroutine of a trace slice. Aux=1 marks
			// runtime-internal provenance, as in gtree.
			g = &leakG{name: e.Str, createFile: e.File, createLine: e.Line,
				system: e.Aux == 1, orphan: true}
			d.gs[e.G] = g
		} else if g.name == "" {
			g.name = e.Str
		}
	case trace.EvGoBlock:
		if g := d.gs[e.G]; g != nil {
			g.blocked = true
			g.reason = e.BlockReason()
			g.file, g.line = e.File, e.Line
			g.blockedAt = d.events
		}
	case trace.EvGoUnblock:
		// Peer is the woken goroutine (self for timer wakes).
		if t := d.gs[e.Peer]; t != nil && t.blocked {
			t.blocked = false
			t.wakes++
		}
	case trace.EvGoEnd, trace.EvGoPanic:
		delete(d.gs, e.G)
	default:
		// Any other action proves the goroutine is running. A park that
		// ends without an observed unblock edge (native traces drop
		// runtime-internal wakes) still counts as a wake — that is what
		// keeps the worker suppression aligned with ingest's GInfo.Wakes.
		if g := d.gs[e.G]; g != nil && g.blocked {
			g.blocked = false
			g.wakes++
		}
	}
	if d.events%d.window == 0 {
		d.censusNow()
	}
}

// EventBatch implements trace.BatchSink.
func (d *LeakStream) EventBatch(evs []trace.Event) {
	for i := range evs {
		d.Event(evs[i])
	}
}

// Close implements trace.Sink.
func (d *LeakStream) Close() {}

// strandSig builds the shared provenance signature for a blocked
// goroutine.
func strandSig(g *leakG) trace.StrandSig {
	return trace.StrandSig{
		Name: g.name, Reason: g.reason,
		File: g.file, Line: g.line,
		CreateFile: g.createFile, CreateLine: g.createLine,
	}
}

// stranded applies the shared classification: parked on something that
// can leak, not runtime infrastructure, not a long-lived worker.
func stranded(g *leakG) bool {
	return g.blocked && !g.system && trace.CanStrand(g.reason) &&
		!trace.WorkerShaped(g.reason, g.orphan, g.wakes)
}

// censusNow records one window boundary: how many goroutines are
// *stale* strands — parked for at least one full window, so transient
// congestion inside the current window never inflates the census.
func (d *LeakStream) censusNow() {
	staleBefore := d.events - d.window
	n := 0
	sig := make(map[string]int)
	for _, g := range d.gs {
		if g.blockedAt > staleBefore || !stranded(g) {
			continue
		}
		n++
		sig[strandSig(g).String()]++
	}
	d.census = append(d.census, n)
	if len(d.census) == 2 {
		d.baseSig = sig
	}
	d.lastSig = sig
}

// StrandCount is one stranded-goroutine class in a census.
type StrandCount struct {
	Sig trace.StrandSig
	N   int
}

// FinalStrands is the end-of-trace strand census (no staleness filter),
// grouped by signature and ordered deterministically — the streaming
// equivalent of ingest.StrandedGoroutines over the same window.
func (d *LeakStream) FinalStrands() []StrandCount {
	bySig := map[string]StrandCount{}
	for _, g := range d.gs {
		if !stranded(g) {
			continue
		}
		s := strandSig(g)
		k := s.String()
		sc := bySig[k]
		sc.Sig, sc.N = s, sc.N+1
		bySig[k] = sc
	}
	out := make([]StrandCount, 0, len(bySig))
	for _, sc := range bySig {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sig.String() < out[j].Sig.String() })
	return out
}

// Finish implements Stream.
//
// The windowed verdict fires when the stale-strand census is
// non-decreasing from its baseline (the second boundary — the first at
// which a goroutine created in window one can be stale) and has grown
// by at least MinGrowth: LEAK-n, n counting the strands accumulated
// beyond steady state. Steady pools are absorbed by the baseline;
// census dips (a presumed strand that woke up) veto the verdict.
//
// When the trace is too short for a trend (fewer than three boundaries)
// or shows none, the end-of-trace strand census decides: that is the
// ingest.StrandedGoroutines judgment, which keeps the detector
// meaningful on short runs and native capture windows.
func (d *LeakStream) Finish(r *sim.Result) Detection {
	det := Detection{Tool: "leak"}
	if r != nil && r.Outcome == sim.OutcomeCrash {
		if r.FaultCrashed() {
			return injectedCrash(det, r)
		}
		return found(det, "CRASH", fmt.Sprint(r.PanicVal))
	}
	if len(d.census) >= 3 {
		base := d.census[1]
		last := d.census[len(d.census)-1]
		monotone := true
		offending := 0 // first boundary (1-based) above the baseline
		for i := 2; i < len(d.census); i++ {
			if d.census[i] < d.census[i-1] {
				monotone = false
				break
			}
			if offending == 0 && d.census[i] > base {
				offending = i + 1
			}
		}
		if growth := last - base; monotone && growth >= d.minGrowth {
			rate := float64(growth) / float64(len(d.census)-2)
			detail := fmt.Sprintf(
				"goroutine census grew %d -> %d across windows 2..%d of %d events (first growth at window %d, +%.2f strands/window)",
				base, last, len(d.census), d.window, offending, rate)
			if top, n := d.topGrowth(); top != "" {
				detail += fmt.Sprintf("; top signature %s (+%d)", top, n)
			}
			return found(det, fmt.Sprintf("LEAK-%d", growth), detail)
		}
	}
	if strands := d.FinalStrands(); len(strands) > 0 {
		total := 0
		for _, sc := range strands {
			total += sc.N
		}
		detail := fmt.Sprintf("%d goroutine(s) stranded at end of trace; %s x%d",
			total, strands[0].Sig, strands[0].N)
		return found(det, fmt.Sprintf("LEAK-%d", total), detail)
	}
	det.Verdict = "OK"
	return det
}

// topGrowth names the signature that accumulated the most strands
// between the baseline and the latest census.
func (d *LeakStream) topGrowth() (string, int) {
	var top string
	best := 0
	keys := make([]string, 0, len(d.lastSig))
	for k := range d.lastSig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if delta := d.lastSig[k] - d.baseSig[k]; delta > best {
			top, best = k, delta
		}
	}
	return top, best
}
