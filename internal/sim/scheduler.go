package sim

import (
	"fmt"
	"runtime"
	"sync"

	"goat/internal/fault"
	"goat/internal/telemetry"
	"goat/internal/trace"
)

// stopSignal is the sentinel panic value used to unwind abandoned
// goroutines when the scheduler stops the world.
type stopSignal struct{}

// Scheduler is the virtual runtime: it owns all simulated goroutines and
// hands the single logical processor from one to the next. Exactly one
// simulated goroutine runs at any moment (strict ping-pong with the
// scheduler loop through coroutine switches, see host.go), so all
// scheduler and primitive state is mutated without locks and every run is
// deterministic for a fixed seed.
type Scheduler struct {
	opts Options
	prng prng
	dec  decider

	// gs is the goroutine arena: index i holds the G with ID i+1 (IDs are
	// dense, allocated from 1 in creation order). Only the first ng
	// entries belong to the current run; the rest are recycled structs
	// kept warm for the next one.
	gs   []*G
	ng   int
	runq []*G

	// dispatches counts this scheduler's dispatches across all its pooled
	// runs; it paces the real-processor yields in dispatch.
	dispatches uint

	clock     int64 // logical timestamp source for trace events
	now       int64 // virtual time (nanoseconds) for timers
	steps     int
	ops       int // total CU handler invocations (op budget accounting)
	sliceOps  int // handler invocations since the last dispatch
	yieldLeft int

	timers   timerHeap
	timerSeq int64

	ect      *trace.Trace
	sinks    []trace.Sink  // all sinks (Close order)
	live     []trace.Sink  // per-event delivery (trace.Unbatched sinks)
	batched  []trace.Sink  // block delivery via the emission batch
	batch    []trace.Event // pending sink delivery (NoTrace runs only; else the ECT tail is the block)
	flushed  int           // events of s.ect already delivered to batched sinks
	stoppers []trace.Stopper
	stopArr  [4]trace.Stopper // inline backing for stoppers (alloc-free)
	stopReq  bool             // a sink requested an early stop

	nextRes trace.ResID

	budget    int // current step budget (maxSteps, or drain extension)
	mainEnded bool
	stopping  bool
	panicked  bool
	panicVal  any
	panicG    trace.GoID

	yieldAt map[int64]bool       // systematic mode: op indices that force a yield
	wakeAt  map[int64]trace.GoID // systematic mode: op indices with a targeted wake

	opRunnable []int32      // per-op other-runnable counts (Options.RecordOps)
	opActor    []trace.GoID // per-op acting goroutine (Options.RecordOps)
	eventOps   []int64      // per-event op attribution (Options.RecordOps)

	faults  *fault.Plan // nil unless Options.Faults is enabled
	stalled []stalledG  // goroutines held unrunnable by stall faults
	cancels []func(*G)  // injected-cancellation targets (conc contexts)
}

// schedPool recycles schedulers (and with them the goroutine arena, run
// queue and emission batch) across runs. Campaigns execute the same
// kernel millions of times; re-allocating this state per run was a
// measurable slice of the cell cost.
var schedPool sync.Pool

// newScheduler builds (or recycles) a scheduler ready to run a main
// function.
func newScheduler(opts Options) *Scheduler {
	s, _ := schedPool.Get().(*Scheduler)
	if s == nil {
		s = &Scheduler{}
	}
	s.opts = opts
	s.prng.seed(opts.Seed)
	s.ng = 0
	s.runq = s.runq[:0]
	s.clock, s.now = 0, 0
	s.steps, s.ops, s.sliceOps = 0, 0, 0
	s.yieldLeft = opts.Delays
	s.timers = s.timers[:0]
	s.timerSeq = 0
	s.stopReq = false
	s.nextRes = 0
	s.mainEnded, s.stopping, s.panicked = false, false, false
	s.panicVal, s.panicG = nil, 0

	base := decider(&s.prng)
	switch {
	case opts.Replay != nil:
		s.dec = &scriptDecider{script: opts.Replay, fallback: base}
	case opts.Record:
		s.dec = &recorder{inner: base}
	default:
		s.dec = base
	}
	if opts.YieldAt != nil {
		s.yieldAt = make(map[int64]bool, len(opts.YieldAt))
		for _, op := range opts.YieldAt {
			s.yieldAt[op] = true
		}
	}
	if opts.WakeAt != nil {
		s.wakeAt = make(map[int64]trace.GoID, len(opts.WakeAt))
		for op, g := range opts.WakeAt {
			s.wakeAt[op] = g
		}
	}
	if !opts.NoTrace {
		if opts.ECT != nil {
			opts.ECT.Reset()
			s.ect = opts.ECT
		} else {
			s.ect = trace.New(1024)
		}
		// The scheduler is the virtual-runtime producer: stamp its full
		// guarantee set so consumers of the buffered ECT see the same
		// source a live sink would. (SimSource still encodes as the
		// original GOATECT1 format — byte-identical to pre-source traces.)
		s.ect.Source = trace.SimSource
	}
	s.sinks = opts.Sinks
	s.batch = s.batch[:0]
	s.flushed = 0
	s.live = s.live[:0]
	s.batched = s.batched[:0]
	for _, snk := range s.sinks {
		if _, ok := snk.(trace.Unbatched); ok {
			s.live = append(s.live, snk)
		} else {
			s.batched = append(s.batched, snk)
		}
	}
	s.stoppers = s.stopArr[:0]
	for _, snk := range s.sinks {
		if st, ok := snk.(trace.Stopper); ok {
			s.stoppers = append(s.stoppers, st)
		}
	}
	s.faults = fault.NewPlan(opts.Seed, opts.Faults)
	s.stalled = s.stalled[:0]
	s.cancels = s.cancels[:0]
	return s
}

// release returns the scheduler to the pool once the Result has been
// built. Everything handed to the Result (trace buffer, recording
// slices, schedule log) is detached first so reuse cannot alias it.
func (s *Scheduler) release() {
	for _, g := range s.gs[:s.ng] {
		g.wakeNote = nil
	}
	s.ect = nil
	s.sinks = nil
	s.live = s.live[:0]
	s.batched = s.batched[:0]
	s.batch = s.batch[:0]
	s.stopArr = [4]trace.Stopper{}
	s.stoppers = nil
	s.dec = nil
	s.yieldAt, s.wakeAt = nil, nil
	s.opRunnable, s.opActor, s.eventOps = nil, nil, nil
	s.faults = nil
	s.stalled = s.stalled[:0]
	s.cancels = s.cancels[:0]
	s.panicVal = nil
	schedPool.Put(s)
}

// Intn draws one scheduling decision in [0, n); primitives use it for
// pseudo-random choices such as select-case picks, so the decision enters
// the recorded schedule script. Degenerate single-choice draws are not
// decisions and stay out of the script.
func (s *Scheduler) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	return s.dec.Intn(n)
}

// NewResID allocates the next resource identifier.
func (s *Scheduler) NewResID() trace.ResID {
	s.nextRes++
	return s.nextRes
}

// Now returns the current virtual time in nanoseconds.
func (s *Scheduler) Now() int64 { return s.now }

// sinkBlock is the emission block size: streaming sinks receive events
// in blocks of this many instead of one interface call per event.
const sinkBlock = 256

// Emit stamps an event with the next logical timestamp and appends it to
// the configured consumers: the buffered ECT immediately (unless tracing
// is disabled), trace.Unbatched sinks per event, every other sink in
// sinkBlock-sized blocks. Blocks are flushed when full and at every
// early-stop poll, so an online detector observes exactly the event
// prefix it would have seen under per-event delivery at each dispatch
// boundary — early-stop timing and record/replay are batching-invariant
// (the service-kernel determinism sweep pins this).
func (s *Scheduler) Emit(e trace.Event) {
	if s.stopping {
		// stopWorld unwinding: defers in user code still run (unlocks,
		// once completions) but the world is already classified — their
		// side-effects must not leak into the recorded ECT or the sinks.
		return
	}
	s.clock++
	if s.ect == nil && len(s.sinks) == 0 {
		return
	}
	e.Ts = s.clock
	if s.ect != nil {
		s.ect.Append(e)
		if s.opts.RecordOps {
			// Attribute the event to the emitting goroutine's most recent
			// CU handler op (0 before its first op). Kept parallel to the
			// buffered ECT, so indexing matches Trace.Events exactly.
			var op int64
			if i := int(e.G); i >= 1 && i <= s.ng {
				op = s.gs[i-1].lastOp
			}
			s.eventOps = append(s.eventOps, op)
		}
	}
	for _, snk := range s.live {
		snk.Event(e)
	}
	if len(s.batched) > 0 {
		if s.ect != nil {
			// The ECT already holds the event; the pending block is the
			// unflushed tail of its buffer — no second copy.
			if len(s.ect.Events)-s.flushed >= sinkBlock {
				s.flushSinks()
			}
		} else {
			s.batch = append(s.batch, e)
			if len(s.batch) >= sinkBlock {
				s.flushSinks()
			}
		}
	}
}

// flushSinks delivers the pending emission block to every sink, in
// order. When a run buffers an ECT the block is a window into that
// buffer (events are staged once, in Append); only NoTrace runs stage
// into the side batch. Sinks implementing trace.BatchSink take the
// whole block in one call; the backing array is the live ECT buffer or
// a reused scratch slice, so batch consumers must not retain it.
func (s *Scheduler) flushSinks() {
	if len(s.batched) == 0 {
		return
	}
	block := s.batch
	if s.ect != nil {
		block = s.ect.Events[s.flushed:]
	}
	if len(block) == 0 {
		return
	}
	for _, snk := range s.batched {
		if bs, ok := snk.(trace.BatchSink); ok {
			bs.EventBatch(block)
			continue
		}
		for i := range block {
			snk.Event(block[i])
		}
	}
	if s.ect != nil {
		s.flushed = len(s.ect.Events)
	} else {
		s.batch = s.batch[:0]
	}
}

// pollStoppers asks the early-stop sinks whether the world should halt.
// It runs at dispatch boundaries, not per event: a goroutine's current
// slice finishes undisturbed, and the stop lands before the next one.
// Pending batched events are flushed first, so the decision is made on
// the full prefix up to this boundary.
func (s *Scheduler) pollStoppers() {
	if len(s.stoppers) == 0 {
		return
	}
	s.flushSinks()
	for _, st := range s.stoppers {
		if st.StopRequested() {
			s.stopReq = true
			return
		}
	}
}

func (s *Scheduler) newG(name string, parent trace.GoID, system bool, file string, line int) *G {
	var g *G
	if s.ng < len(s.gs) {
		g = s.gs[s.ng]
		*g = G{s: s}
	} else {
		g = &G{s: s}
		s.gs = append(s.gs, g)
	}
	s.ng++
	g.id = trace.GoID(s.ng)
	g.parent = parent
	g.name = name
	g.system = system
	g.state = StateRunnable
	g.createFile = file
	g.createLine = line
	return g
}

// spawn hands a simulated goroutine to a pooled host and puts it on the
// run queue. The host emits GoStart and calls fn at the first dispatch
// (see host.go).
func (s *Scheduler) spawn(g *G, fn func(*G)) {
	h := getHost()
	h.g, h.fn = g, fn
	g.host = h
	s.runq = append(s.runq, g)
}

// Go spawns a child application goroutine from g, emitting GoCreate with
// the call-site CU. It returns the child's handle (mainly for tests).
func (g *G) Go(name string, fn func(*G)) *G {
	file, line := Caller(1)
	return g.GoAt(name, file, line, fn)
}

// GoAt is Go with an explicit creation site (used by primitives that wrap
// goroutine creation, where the interesting CU is the wrapper's caller).
func (g *G) GoAt(name string, file string, line int, fn func(*G)) *G {
	child := g.s.newG(name, g.id, false, file, line)
	g.s.Emit(trace.Event{G: g.id, Type: trace.EvGoCreate, Peer: child.id, File: file, Line: line, Str: name})
	g.s.spawn(child, fn)
	return child
}

// GoSystem spawns a runtime-internal goroutine (timers, watchdogs) that is
// excluded from the application-level goroutine tree. Its GoCreate event is
// marked with Aux=1 so offline analysis can separate it, the way the paper
// separates runtime/tracer goroutines from application goroutines.
func (g *G) GoSystem(name string, fn func(*G)) *G {
	file, line := Caller(1)
	child := g.s.newG(name, g.id, true, file, line)
	g.s.Emit(trace.Event{G: g.id, Type: trace.EvGoCreate, Peer: child.id, Aux: 1, File: file, Line: line, Str: name})
	g.s.spawn(child, fn)
	return child
}

// leaveProcessor parks the calling goroutine until the scheduler dispatches
// it again, panicking with stopSignal if the world stopped meanwhile. A
// goroutine already unwinding under stopWorld (a deferred Block or send)
// panics without parking: nothing would resume it, and its host would
// never return to the pool.
func (g *G) leaveProcessor() {
	if !g.s.stopping {
		g.host.yield(false)
	}
	if g.s.stopping {
		panic(stopSignal{})
	}
	g.state = StateRunning
}

// Block parks g with the given reason, emitting EvGoBlock attributed to the
// CU at (file, line). It returns after some other goroutine readies g; the
// wake note attached by the waker (if any) is returned.
func (g *G) Block(reason trace.BlockReason, res trace.ResID, file string, line int) any {
	g.state = StateBlocked
	g.reason = reason
	g.wakeNote = nil
	g.s.Emit(trace.Event{G: g.id, Type: trace.EvGoBlock, Res: res, Aux: int64(reason), File: file, Line: line})
	g.leaveProcessor()
	g.reason = trace.BlockNone
	return g.wakeNote
}

// Ready moves target from blocked to runnable, emitting EvGoUnblock
// attributed to g (the unblocking action's goroutine). The note is
// delivered to the sleeper's Block return value.
func (g *G) Ready(target *G, res trace.ResID, note any) {
	if g.s.stopping {
		// Wakeups fired by unwinding defers during stopWorld must not
		// repaint settled goroutine states: the Result snapshots the world
		// as it was classified, and stopWorld resumes everyone itself.
		return
	}
	if target.state != StateBlocked {
		panic(fmt.Sprintf("sim: Ready(%v) but state is %v", target, target.state))
	}
	target.state = StateRunnable
	target.wakeNote = note
	g.s.Emit(trace.Event{G: g.id, Type: trace.EvGoUnblock, Peer: target.id, Res: res})
	g.s.runq = append(g.s.runq, target)
}

// Yield gives up the processor voluntarily (runtime.Gosched analogue).
func (g *G) Yield() {
	file, line := Caller(1)
	g.yield(trace.EvGoSched, file, line)
}

func (g *G) yield(ev trace.Type, file string, line int) {
	g.state = StateRunnable
	g.s.Emit(trace.Event{G: g.id, Type: ev, File: file, Line: line})
	if g.s.fastRedispatch() {
		// Nothing else is runnable: the scheduler loop would redispatch
		// this goroutine immediately, so skip the two switches and
		// continue in place. fastRedispatch performed the loop's
		// bookkeeping, so schedules, scripts and budgets are identical.
		g.state = StateRunning
		return
	}
	g.s.runq = append(g.s.runq, g)
	g.leaveProcessor()
}

// fastRedispatch reports whether the calling (yielding) goroutine may
// keep the processor because the scheduler loop, run to its next
// dispatch, would inevitably pick it again. That is the case when the
// run queue is empty (the yielder would be its only member), no stalled
// goroutine could rejoin it, no early stop is requested once pending
// events are delivered, and the step budget allows another dispatch.
// When it returns true it has applied exactly the dispatch bookkeeping
// (step count, slice reset) the loop would have; scheduling decisions
// are untouched either way, because a single-entry run queue draws none.
func (s *Scheduler) fastRedispatch() bool {
	if len(s.runq) != 0 || len(s.stalled) != 0 || s.panicked || s.stopping {
		return false
	}
	if s.steps >= s.budget || s.ops >= s.budget*64 {
		return false
	}
	if len(s.stoppers) > 0 {
		s.pollStoppers()
		if s.stopReq {
			return false
		}
	}
	s.steps++
	s.sliceOps = 0
	return true
}

// wakeYield forces a yield at a targeted-wake op: the acting goroutine
// re-enqueues as usual, and the wake target, if currently runnable, is
// moved to the head of the run queue so it is dispatched next (under
// PickFIFO). An absent or unrunnable target degrades to a plain forced
// yield — the schedule stays deterministic either way.
func (g *G) wakeYield(target trace.GoID, file string, line int) {
	s := g.s
	for i, r := range s.runq {
		if r.id == target {
			if i > 0 {
				copy(s.runq[1:i+1], s.runq[:i])
				s.runq[0] = r
			}
			break
		}
	}
	g.yield(trace.EvGoSched, file, line)
}

// sliceOpBudget bounds how many concurrency usages one goroutine may
// execute without leaving the processor. A goroutine spinning through CU
// points (a select/default polling loop) would otherwise starve the
// scheduler forever when probabilistic preemption is disabled — this is
// the virtual runtime's analogue of Go 1.14's asynchronous preemption,
// and it is not a scheduling *decision*, so it bypasses the decider.
const sliceOpBudget = 256

// SliceOpBudget exposes the per-slice op budget: schedule analyses that
// reason about forced preempts (the DPOR explorer's backtrack windows)
// must know when slice exhaustion can perturb a schedule.
const SliceOpBudget = sliceOpBudget

// Handler is the schedule-perturbation hook injected before every
// concurrency usage (the paper's goat.handler()). While the delay budget D
// lasts it forces a yield with probability YieldProb; independently it may
// preempt with the natural-noise probability, and unconditionally after
// the per-slice op budget.
func (g *G) Handler(file string, line int) {
	g.handler(trace.CatNone, file, line)
}

// HandlerCat is Handler with the CU's primitive category attached, so
// category-targeted faults (channel-op slowdowns) can find their points.
func (g *G) HandlerCat(cat trace.Category, file string, line int) {
	g.handler(cat, file, line)
}

func (g *G) handler(cat trace.Category, file string, line int) {
	s := g.s
	s.ops++
	s.sliceOps++
	g.lastOp = int64(s.ops)
	if s.opts.RecordOps {
		// The current goroutine holds the processor and is not in runq,
		// so len(runq) is exactly the count of *other* runnable peers.
		s.opRunnable = append(s.opRunnable, int32(len(s.runq)))
		s.opActor = append(s.opActor, g.id)
	}
	if s.faults != nil {
		s.applyFaults(g, cat, file, line)
	}
	if s.yieldAt != nil || s.wakeAt != nil {
		// Systematic mode: yields fire exactly at the chosen op indices.
		// A lookup in a nil map is false, so either map may be absent.
		if target, ok := s.wakeAt[int64(s.ops)]; ok {
			g.wakeYield(target, file, line)
			return
		}
		if s.yieldAt[int64(s.ops)] {
			g.yield(trace.EvGoSched, file, line)
			return
		}
		if s.sliceOps >= sliceOpBudget {
			g.yield(trace.EvGoPreempt, file, line)
		}
		return
	}
	if s.yieldLeft > 0 && s.dec.Chance(s.opts.yieldProb()) {
		s.yieldLeft--
		g.yield(trace.EvGoSched, file, line)
		return
	}
	if s.sliceOps >= sliceOpBudget {
		g.yield(trace.EvGoPreempt, file, line)
		return
	}
	if p := s.opts.preemptProb(); p > 0 && s.dec.Chance(p) {
		g.yield(trace.EvGoPreempt, file, line)
	}
}

// HandlerHere is Handler with the CU attributed to the caller's call site.
func (g *G) HandlerHere() {
	file, line := Caller(1)
	g.Handler(file, line)
}

// pick removes and returns the next goroutine to dispatch.
func (s *Scheduler) pick() *G {
	var i int
	switch s.opts.Pick {
	case PickFIFO:
		i = 0
	default:
		i = s.Intn(len(s.runq))
	}
	g := s.runq[i]
	s.runq = append(s.runq[:i], s.runq[i+1:]...)
	return g
}

// dispatch runs one goroutine until it leaves the processor. Coroutine
// switches never enter the Go scheduler, so every 64th dispatch of a
// scheduler also yields the real processor: without it a campaign at
// GOMAXPROCS 1 starves the GC mark worker and the scavenger, and its
// heap grows. The count spans pooled runs because campaign runs are
// often shorter than 64 steps.
func (s *Scheduler) dispatch(g *G) {
	s.steps++
	s.sliceOps = 0
	s.dispatches++
	if s.dispatches%64 == 0 {
		runtime.Gosched()
	}
	s.switchTo(g)
}

// Run executes main under a fresh scheduler and returns the classified
// result. It is the only entry point of the virtual runtime.
func Run(opts Options, main func(*G)) *Result {
	s := newScheduler(opts)
	mainG := s.newG("main", 0, false, "", 0)
	s.spawn(mainG, main)

	s.budget = s.opts.maxSteps()
	outcome := OutcomeOK

loop:
	for {
		if s.panicked {
			outcome = OutcomeCrash
			break
		}
		s.pollStoppers()
		if s.stopReq {
			// A streaming sink decided its verdict: halt the world here
			// instead of running the schedule out.
			outcome = OutcomeStopped
			break
		}
		if mainG.state == StateDone && !s.mainEnded {
			s.mainEnded = true
			// Main returned: surviving goroutines get a bounded drain to
			// finish naturally (the paper's watchdog grace period).
			s.budget = s.steps + s.opts.drainSteps()
		}
		// Injected stalls whose hold expired rejoin the run queue first.
		s.releaseStalled(false)
		if len(s.runq) == 0 {
			// Nothing runnable: advance virtual time to the next timer.
			if s.fireTimers() {
				continue
			}
			// Still nothing: force-release the earliest stalled goroutine
			// so an injected stall is never misread as a deadlock.
			if s.releaseStalled(true) {
				continue
			}
			break // settled: classify below
		}
		// The op budget (64 CUs per step on average) catches spin loops
		// whose slices are long; the step budget catches everything else.
		if s.steps >= s.budget || s.ops >= s.budget*64 {
			if s.mainEnded {
				break // drain budget exhausted; classify leaks below
			}
			outcome = OutcomeTimeout
			break loop
		}
		s.dispatch(s.pick())
	}

	if outcome == OutcomeOK && !s.panicked {
		outcome = s.classify(mainG)
	}
	if s.panicked {
		outcome = OutcomeCrash
	}
	s.stopWorld()
	s.flushSinks()
	for _, snk := range s.sinks {
		snk.Close()
	}
	if telemetry.Enabled() {
		// One batch of registry updates per run, never per event, so the
		// virtual runtime's hot loop stays telemetry-free.
		telemetry.SimRuns.Inc()
		telemetry.SimDispatches.Add(int64(s.steps))
		telemetry.SimOps.Add(int64(s.ops))
		telemetry.SimYields.Add(int64(opts.Delays - s.yieldLeft))
		telemetry.SimOpsPerRun.Observe(int64(s.ops))
	}
	r := s.result(outcome, mainG)
	s.release()
	return r
}

// classify inspects the settled world (nothing runnable, no timers or
// budget exhausted) and names the outcome.
func (s *Scheduler) classify(mainG *G) Outcome {
	if mainG.state != StateDone {
		// Main never finished and nothing can run: every live goroutine is
		// blocked — the runtime's global-deadlock condition.
		return OutcomeGlobalDeadlock
	}
	for _, g := range s.gs[:s.ng] {
		if !g.system && g.state != StateDone {
			return OutcomeLeak
		}
	}
	return OutcomeOK
}

// stopWorld ends every goroutine whose job is not over, so no simulated
// goroutine stays live across simulations and every host returns to the
// pool. A goroutine that never ran returns at once; a parked one unwinds
// with stopSignal (see leaveProcessor). s.ng is reread on every step
// because an unwinding defer may still spawn.
func (s *Scheduler) stopWorld() {
	s.stopping = true
	for i := 0; i < s.ng; i++ {
		if g := s.gs[i]; g.host != nil {
			s.switchTo(g)
		}
	}
}

// result snapshots the final world.
func (s *Scheduler) result(outcome Outcome, mainG *G) *Result {
	r := &Result{
		Outcome:   outcome,
		Trace:     s.ect,
		Seed:      s.opts.Seed,
		Steps:     s.steps,
		Ops:       s.ops,
		MainEnded: mainG.state == StateDone,
		PanicVal:  s.panicVal,
		PanicG:    s.panicG,

		EarlyStopped: outcome == OutcomeStopped,
		OpRunnable:   s.opRunnable,
		OpActor:      s.opActor,
		EventOps:     s.eventOps,
	}
	for _, g := range s.gs[:s.ng] {
		info := g.info()
		r.Goroutines = append(r.Goroutines, info)
		if !g.system && g.state != StateDone && g.state != StatePanicked {
			r.Leaked = append(r.Leaked, info)
		}
	}
	switch d := s.dec.(type) {
	case *recorder:
		r.Schedule = d.log
	case *scriptDecider:
		r.ReplayDiverged = d.diverged
	}
	if s.faults != nil {
		r.Faults = s.faults.Applied()
		r.FaultsPending = s.faults.PendingCount()
	}
	return r
}
