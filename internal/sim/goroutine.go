package sim

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"

	"goat/internal/trace"
)

// State is the lifecycle state of a simulated goroutine.
type State uint8

const (
	// StateRunnable means the goroutine is on the run queue.
	StateRunnable State = iota
	// StateRunning means the goroutine currently holds the processor.
	StateRunning
	// StateBlocked means the goroutine is parked on a resource.
	StateBlocked
	// StateDone means the goroutine reached the end of its function.
	StateDone
	// StatePanicked means the goroutine terminated by panic.
	StatePanicked
)

var stateNames = [...]string{"runnable", "running", "blocked", "done", "panicked"}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// G is the handle a simulated goroutine uses to interact with the virtual
// runtime. Every function running under the scheduler receives its own *G;
// all primitive operations take it as their first argument (the explicit
// analogue of the implicit current-goroutine context in the real runtime).
type G struct {
	s      *Scheduler
	id     trace.GoID
	parent trace.GoID
	name   string
	system bool // runtime-internal goroutine (timers, watchdog): excluded from the application tree

	state  State
	reason trace.BlockReason // valid while StateBlocked
	host   *host             // runs this goroutine's job; nil once the job ended

	createFile string
	createLine int

	// lastOp is the global op index of this goroutine's most recent CU
	// handler invocation — the op a forced yield must target to preempt
	// the goroutine before the operation it was about to execute
	// (Options.RecordOps event attribution).
	lastOp int64

	// wake communication for primitives: a waker may attach a note the
	// sleeper reads after resuming (e.g. "channel closed while you waited").
	wakeNote any
}

// ID returns the goroutine's trace identifier.
func (g *G) ID() trace.GoID { return g.id }

// Name returns the goroutine's creation name.
func (g *G) Name() string { return g.name }

// Parent returns the creator's identifier (0 for the main goroutine).
func (g *G) Parent() trace.GoID { return g.parent }

// System reports whether this is a runtime-internal goroutine.
func (g *G) System() bool { return g.system }

// Sched returns the scheduler this goroutine runs on.
func (g *G) Sched() *Scheduler { return g.s }

// State returns the goroutine's current lifecycle state.
func (g *G) State() State { return g.state }

// BlockedOn returns the block reason while the goroutine is parked.
func (g *G) BlockedOn() trace.BlockReason { return g.reason }

// callerSite is a resolved program counter: the symbolization result
// cached by Caller.
type callerSite struct {
	file string
	line int
}

// callerCache maps return PCs to resolved (file, line) pairs. A PC's
// symbolization never changes within a process, so the cache is
// appendonly and shared across schedulers (campaigns run the same
// kernels millions of times over a handful of distinct CU sites).
var callerCache sync.Map // uintptr → callerSite

// Caller returns the file (base name) and line of the caller's caller,
// used by primitives to attribute events to their concurrency usage.
// Only the raw PC is captured per call; the expensive line-table lookup
// runs once per distinct call site and is served from a cache after that.
//
// On amd64 the PC capture walks the frame-pointer chain directly
// (fpCallerPC) instead of invoking the runtime unwinder, which decodes
// pcvalue tables on every call. That walk counts *physical* frames, so
// it requires that neither Caller nor any function calling it is ever
// inlined. Caller is pinned below; its callers need no annotation
// because each contains at least two non-inlinable calls (Caller itself
// plus the handler/emit using the result), which exceeds the inliner's
// budget by construction. TestCallerMatchesRuntime guards the contract.
//
//go:noinline
func Caller(skip int) (string, int) {
	if fpCaller {
		return siteForPC(fpCallerPC(skip))
	}
	var pcs [1]uintptr
	runtime.Callers(skip+2, pcs[:])
	return siteForPC(pcs[0]) // pcs[0] is 0 on capture failure → "?", 0
}

func siteForPC(pc uintptr) (string, int) {
	if v, ok := callerCache.Load(pc); ok {
		cs := v.(callerSite)
		return cs.file, cs.line
	}
	frames := runtime.CallersFrames([]uintptr{pc})
	fr, _ := frames.Next()
	cs := callerSite{file: "?", line: 0}
	if fr.File != "" {
		cs = callerSite{file: filepath.Base(fr.File), line: fr.Line}
	}
	callerCache.Store(pc, cs)
	return cs.file, cs.line
}

// Info is a read-only snapshot of a goroutine's final state, reported in
// the execution Result.
type Info struct {
	ID         trace.GoID
	Parent     trace.GoID
	Name       string
	System     bool
	State      State
	Reason     trace.BlockReason
	CreateFile string
	CreateLine int
}

func (g *G) info() Info {
	return Info{
		ID:         g.id,
		Parent:     g.parent,
		Name:       g.name,
		System:     g.system,
		State:      g.state,
		Reason:     g.reason,
		CreateFile: g.createFile,
		CreateLine: g.createLine,
	}
}

// String identifies the goroutine for diagnostics.
func (g *G) String() string {
	return fmt.Sprintf("g%d(%s)", g.id, g.name)
}
