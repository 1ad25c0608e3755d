// Package ingest converts native Go execution traces (runtime/trace
// captures, the go122/go123 wire format) into the ECT vocabulary, so
// every trace-level analysis in this repository — the goroutine tree,
// the GoAT detector, happens-before, coverage, Chrome export — runs on
// real binaries exactly as it runs on virtual-runtime executions.
//
// The produced trace is a *window*: goroutines pre-exist it, main
// usually outlives it, only blocking operations are visible, and
// resource identities are correlation buckets. The trace's SourceInfo
// declares exactly that (see trace.Caps), and every consumer degrades
// along its declared contract instead of guessing.
package ingest

import (
	"fmt"
	"io"
	"os"

	"goat/internal/trace"
)

// Caps is the guarantee set of a converted native trace: source
// locations are real (they come from the tracer's stack tables), but
// creations may predate the window, goroutine IDs are the runtime's
// sparse ones, resource identities are heuristic, only blocking
// operations appear, and the window rarely spans the whole run.
const Caps = trace.CapSourceLoc

// GInfo describes one goroutine of the ingested window, the provenance
// record the stranded-goroutine analysis keys on.
type GInfo struct {
	ID     trace.GoID
	Name   string // root function ("" when unknowable)
	System bool
	Orphan bool // pre-existed the window (creation not observed)

	CreateFile string // go-statement site, when the creation was observed
	CreateLine int

	Ended   bool
	Blocked bool // parked when the window closed
	Reason  trace.BlockReason
	File    string // block site, when Blocked
	Line    int

	Wakes     int   // times the goroutine was woken inside the window
	BlockedNs int64 // how long the final park had lasted at window end
}

// Frame is one resolved stack frame of a CPU sample.
type Frame struct {
	Func string
	File string
	Line int
}

// CPUSample is one profiling-clock hit from the capture's CPU-sample
// batches (present when the traced program also ran the CPU profiler),
// attributed to its goroutine with a resolved call stack, leaf first.
type CPUSample struct {
	G      trace.GoID
	WallNs int64 // offset from window start
	Stack  []Frame
}

// Run is one ingested native execution window.
type Run struct {
	Trace *trace.Trace
	Info  RunInfo
	Gs    map[trace.GoID]*GInfo

	// Wall holds, aligned index-for-index with Trace.Events, each
	// event's wall-clock offset from the window start in nanoseconds.
	// Logical timestamps remain 1..N; this side table is what lets
	// profile builders charge real durations to native block spans.
	Wall []int64

	// CPUSamples are the capture's profiling-clock hits (empty unless
	// the traced program ran runtime/pprof CPU profiling concurrently).
	CPUSamples []CPUSample
}

// RunInfo summarizes the window.
type RunInfo struct {
	Version      int     // trace format version ("go 1.N trace")
	TicksPerSec  float64 // native clock frequency
	WallNs       int64   // window span in nanoseconds
	Goroutines   int     // goroutines observed
	Created      int     // creations observed in-window
	Orphans      int     // goroutines that pre-existed the window
	MainEnded    bool    // g1 reached GoDestroy inside the window
	DroppedWakes int     // unblock edges with no attributable waker
	CPUSamples   int     // profiling-clock samples carried by the capture
}

// Source returns the SourceInfo stamped on ingested traces.
func Source(version int) trace.SourceInfo {
	return trace.SourceInfo{Name: fmt.Sprintf("native go1.%d", version), Caps: Caps}
}

// Parse converts a native execution trace read from r.
func Parse(r io.Reader) (*Run, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

// ParseFile converts a native execution trace file.
func ParseFile(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

func parse(data []byte) (*Run, error) {
	w, err := parseWire(data)
	if err != nil {
		return nil, err
	}
	c := newConverter(w)
	if err := c.convert(); err != nil {
		return nil, err
	}
	c.out.Source = Source(w.version)
	if c.out.Len() == 0 {
		return nil, fmt.Errorf("ingest: trace contains no convertible goroutine events")
	}

	nsPerTick := w.freq // freq field already stores ns per tick
	run := &Run{Trace: c.out, Wall: c.wall, Gs: make(map[trace.GoID]*GInfo, len(c.gs))}
	run.Info = RunInfo{
		Version:      w.version,
		TicksPerSec:  1e9 / nsPerTick,
		WallNs:       int64(float64(c.maxTs-c.minTs) * nsPerTick),
		Created:      c.created,
		Orphans:      c.orphans,
		DroppedWakes: c.droppedWakes,
		CPUSamples:   len(w.cpuSamples),
	}
	for _, s := range w.cpuSamples {
		frames := c.stack(s.gen, s.stack).frames
		if len(frames) == 0 {
			continue
		}
		cs := CPUSample{G: trace.GoID(s.g), Stack: make([]Frame, len(frames))}
		if s.ts > c.minTs {
			cs.WallNs = int64(float64(s.ts-c.minTs) * nsPerTick)
		}
		for i, f := range frames {
			cs.Stack[i] = Frame{Func: f.fn, File: f.file, Line: f.line}
		}
		run.CPUSamples = append(run.CPUSamples, cs)
	}
	for i := range c.gs {
		st := &c.gs[i]
		if !st.seen {
			continue // named in args, never touched by the emission pass
		}
		run.Info.Goroutines++
		if !st.introduced && !st.started {
			continue // named in args but never active in-window
		}
		gi := &GInfo{
			ID:         trace.GoID(st.id),
			Name:       st.name,
			System:     st.system,
			Orphan:     st.orphan,
			CreateFile: st.createFile,
			CreateLine: st.createLine,
			Ended:      st.ended,
			Wakes:      st.wakes,
		}
		if st.blocked && !st.ended {
			gi.Blocked = true
			gi.Reason = st.blockReason
			gi.File = st.blockFile
			gi.Line = st.blockLine
			if st.blockTs > 0 && c.maxTs >= st.blockTs {
				gi.BlockedNs = int64(float64(c.maxTs-st.blockTs) * nsPerTick)
			}
		}
		if st.id == 1 {
			run.Info.MainEnded = st.ended
		}
		run.Gs[gi.ID] = gi
	}
	return run, nil
}

// SniffNative reports whether the file header looks like a native Go
// execution trace rather than a GOATECT encoding.
func SniffNative(prefix []byte) bool {
	return len(prefix) >= 3 && string(prefix[:3]) == "go "
}
