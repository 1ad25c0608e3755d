// Conversion of parsed native trace events into the ECT vocabulary.
//
// The converter runs in three passes over the timed events:
//
//  1. attribute: walk each M's batch stream in file order, tracking the
//     goroutine currently running on that M, so every event gains an
//     acting goroutine (native events are implicitly "the current g").
//  2. correlate: derive heuristic resource identities by unioning the
//     block site of every park with the wake site that released it —
//     the unblock edge is the only place the runtime connects the two
//     ends of a channel/mutex/cond rendezvous.
//  3. emit: merge the per-M streams into one total order by timestamp
//     and run the goroutine state machine, producing ECT events with
//     logical timestamps 1..N.
//
// The passes cost work per event plus work per distinct stack and site:
// goroutines become dense indices during attribution, each (generation,
// stack) is resolved once into a stackInfo that carries everything the
// passes derive from a stack, correlation keys are interned integers in
// an array-backed union-find, and the global order is a k-way merge of
// the per-batch runs (each already in ticks order) into event indices,
// rather than a sort of the events themselves.
//
// What the native tracer cannot tell us stays unknowable and is marked
// as such: only *blocking* operations appear (no uncontended
// acquisitions, no unlocks — CapOpEvents absent), goroutine creations
// that predate the trace window are invisible (CapCreateObserved
// absent), and resource identities are correlation buckets, not object
// identities (CapExactResIDs absent).
package ingest

import (
	"fmt"
	"math"
	"strings"

	"goat/internal/trace"
)

// gState tracks one native goroutine through conversion.
type gState struct {
	id         uint64
	seen       bool // touched by the emission pass (counted in RunInfo)
	introduced bool
	started    bool
	system     bool
	orphan     bool // entered the trace without an observed creation
	name       string
	createFile string
	createLine int
	introAt    int // ECT index of its EvGoStart, once started

	// Current park, when blocked.
	blocked     bool
	blockReason trace.BlockReason
	blockFile   string
	blockLine   int
	blockKey    int32  // interned correlation key (0 when the reason carries no resource)
	blockTs     uint64 // ticks at park

	// A wake arrived; the next GoStart emits the completion event.
	pendingCompletion trace.Type
	wakes             int // times this goroutine was woken during the window
	ended             bool
}

// stackInfo is one resolved (generation, stack ID) with everything the
// passes derive from it, computed once per distinct stack.
type stackInfo struct {
	frames     []frameInfo
	userFile   string // userFrame
	userLine   int
	root       frameInfo         // rootFrame
	systemRoot bool              // systemRoot(root.fn)
	parked     trace.BlockReason // stackBlockReason
	sync       trace.BlockReason // what the generic "sync" block reason means on this stack

	// keys holds the interned correlation key of a park at this stack's
	// user site, per resource family (0: no key).
	keys [numFamilies]int32
}

// siteKey is the correlation key of a park: reason family + user site.
type siteKey struct {
	family family
	file   string
	line   int
}

// converter holds the cross-pass state.
type converter struct {
	w *wireTrace

	// gs holds every goroutine the events name, indexed densely in
	// first-appearance order; gIndex maps runtime goroutine IDs to it.
	gs     []gState
	gIndex map[uint64]int32

	noStack stackInfo // the resolution of stack 0 ("no stack")

	// Correlation keys: keyIDs interns sites, parent is the union-find
	// forest over key IDs and res the ResID assigned to each class root.
	// Key ID 0 is reserved for "no key".
	keyIDs map[siteKey]int32
	parent []int32
	res    []trace.ResID
	nres   int

	out *trace.Trace

	// wall records, per emitted ECT event, the wall-clock offset of the
	// wire event that produced it. Logical timestamps stay 1..N (the ECT
	// contract); the side table is what lets profile builders recover
	// real blocked durations from a native window.
	wall      []int64
	curTicks  uint64
	nsPerTick float64

	// creates lists the ECT index and child of every EvGoCreate, for the
	// system-provenance fix-up at the end of emission.
	creates []childRef

	err error // the first invalid goroutine ID named by the events

	minTs, maxTs uint64 // observed tick range
	created      int    // creations observed in-window
	orphans      int
	droppedWakes int // unblocks with no attributable waker
}

type childRef struct {
	at    int
	child int32
}

func newConverter(w *wireTrace) *converter {
	c := &converter{
		w:         w,
		gIndex:    map[uint64]int32{},
		keyIDs:    map[siteKey]int32{},
		parent:    []int32{0},
		nsPerTick: w.freq, // freq already stores ns per tick
	}
	c.noStack = c.newStackInfo(nil)
	return c
}

// index returns the dense index of goroutine id, adding it on first
// sight. The runtime numbers goroutines from 1, and an ECT GoID is
// signed, so 0 and IDs beyond the int64 range only occur in corrupt
// input; they fail the parse.
func (c *converter) index(id uint64) int32 {
	if id == 0 || id > math.MaxInt64 {
		if c.err == nil {
			c.err = fmt.Errorf("ingest: event names invalid goroutine %d", id)
		}
		return 0
	}
	i, ok := c.gIndex[id]
	if !ok {
		i = int32(len(c.gs))
		c.gIndex[id] = i
		c.gs = append(c.gs, gState{id: id})
	}
	return i
}

// g returns goroutine i's state for the emission pass. Every goroutine
// exists after attribution, so the pointer stays valid.
func (c *converter) g(i int32) *gState {
	st := &c.gs[i]
	st.seen = true
	return st
}

// stack resolves (gen, id) once and caches the result.
func (c *converter) stack(gen uint32, id uint64) *stackInfo {
	if id == 0 {
		return &c.noStack
	}
	g := c.w.gens[gen]
	if si, ok := g.resolved[id]; ok {
		return si
	}
	si := c.newStackInfo(c.w.resolveStack(gen, id))
	g.resolved[id] = &si
	return &si
}

func (c *converter) newStackInfo(frames []frameInfo) stackInfo {
	si := stackInfo{
		frames: frames,
		root:   rootFrame(frames),
		parked: stackBlockReason(frames),
		sync:   syncBlockReason(frames),
	}
	si.userFile, si.userLine = userFrame(frames)
	si.systemRoot = systemRoot(si.root.fn)
	if si.userFile != "" {
		for f := famChan; f < numFamilies; f++ {
			si.keys[f] = c.intern(siteKey{family: f, file: si.userFile, line: si.userLine})
		}
	}
	return si
}

// ---------------------------------------------------------------------
// Pass 1: per-M goroutine attribution.

// attribute fills every event's acting and target goroutine, and
// returns the global emission order as event indices.
func (c *converter) attribute() ([]uint32, error) {
	// Every goroutine of a well-formed window is announced by a creation
	// or a status event of some generation.
	n := c.w.typeCount
	c.gs = make([]gState, 0, n[wevGoCreate]+n[wevGoCreateBlocked]+n[wevGoCreateSyscall]+n[wevGoStatus]+n[wevGoStatusStack])

	mIndex := map[uint64]int{} // M → slot in cur
	var cur []int32            // per M slot: the running goroutine, -1 when none
	slot, lastM := -1, uint64(0)
	runs := []int{0} // starts of the ascending-ticks runs of events
	evs := c.w.events
	for i := range evs {
		ev := &evs[i]
		if slot < 0 || ev.m != lastM {
			s, ok := mIndex[ev.m]
			if !ok {
				s = len(cur)
				mIndex[ev.m] = s
				cur = append(cur, -1)
			}
			slot, lastM = s, ev.m
		}
		g := cur[slot]
		ev.target = -1
		switch ev.typ {
		case wevGoStart, wevGoCreateSyscall:
			// [g, ...]: the named goroutine takes the M.
			ev.target = c.index(ev.args[0])
			g = ev.target
			cur[slot] = g
		case wevGoStatus, wevGoStatusStack:
			// [g, m, status, ...]: a Running or Syscall status
			// re-establishes the M binding at a generation boundary (a
			// goroutine in a syscall still owns its M).
			ev.target = c.index(ev.args[0])
			g = ev.target
			if s := goStatus(ev.args[2]); (s == statusRunning || s == statusSyscall) && ev.args[1] == ev.m {
				cur[slot] = g
			}
		case wevGoBlock, wevGoStop, wevGoDestroy, wevGoDestroySysc, wevGoSyscallEndBl:
			// The acting goroutine was captured above; it leaves the M.
			cur[slot] = -1
		case wevGoSwitch, wevGoSwitchDestroy:
			// The current goroutine yields directly to args[0].
			ev.target = c.index(ev.args[0])
			cur[slot] = ev.target
		case wevGoCreate, wevGoCreateBlocked, wevGoUnblock:
			ev.target = c.index(ev.args[0])
		}
		ev.g = g
		if i > 0 && ev.ts < evs[i-1].ts {
			runs = append(runs, i)
		}
		if ev.ts > 0 {
			if c.minTs == 0 || ev.ts < c.minTs {
				c.minTs = ev.ts
			}
			if ev.ts > c.maxTs {
				c.maxTs = ev.ts
			}
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	// The emission pass needs one global order; native timestamps come
	// from one monotonic clock, so ordering by ticks (file order
	// breaking ties) reconstructs it faithfully enough for blocking
	// analysis.
	return mergeRuns(evs, runs), nil
}

// mergeRuns returns the indices of evs ordered by (ts, index), given the
// starts of its ascending-ts runs. Each batch of a capture is one run
// (its timestamps accumulate non-negative deltas), so this is a k-way
// merge over a handful of batches: n·log k comparisons on a heap that
// stays in cache, instead of a sort of all n events.
func mergeRuns(evs []wireEvent, runs []int) []uint32 {
	type cursor struct {
		ts      uint64
		at, end int
	}
	less := func(a, b *cursor) bool {
		return a.ts < b.ts || (a.ts == b.ts && a.at < b.at)
	}
	h := make([]cursor, len(runs))
	for i, start := range runs {
		end := len(evs)
		if i+1 < len(runs) {
			end = runs[i+1]
		}
		h[i] = cursor{ts: evs[start].ts, at: start, end: end}
	}
	siftDown := func(i int) {
		for {
			least, l := i, 2*i+1
			if l < len(h) && less(&h[l], &h[least]) {
				least = l
			}
			if r := l + 1; r < len(h) && less(&h[r], &h[least]) {
				least = r
			}
			if least == i {
				return
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	order := make([]uint32, 0, len(evs))
	for len(h) > 0 {
		top := &h[0]
		order = append(order, uint32(top.at))
		if top.at++; top.at < top.end {
			top.ts = evs[top.at].ts
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return order
}

// ectBound is an upper bound on the ECT length: one event per wire event
// that emits one, plus one synthesized completion per unblock and one
// introduction per goroutine. Sizing the output by it means neither the
// trace nor its wall table ever regrows.
func (c *converter) ectBound() int {
	n := len(c.gs) + c.w.typeCount[wevGoUnblock]
	for typ, emits := range emitsECT {
		if emits {
			n += c.w.typeCount[typ]
		}
	}
	return n
}

// emitsECT marks the wire events that emit at most one ECT event of
// their own (introductions and completions aside).
var emitsECT = [wevMax]bool{
	wevGoCreate: true, wevGoCreateBlocked: true,
	wevGoBlock: true, wevGoSyscallBegin: true,
	wevGoSyscallEnd: true, wevGoSyscallEndBl: true,
	wevGoUnblock: true, wevGoDestroy: true, wevGoDestroySysc: true,
	wevGoStop: true, wevGoStatus: true, wevGoStatusStack: true,
	wevUserLog: true, wevUserRegionBegin: true, wevUserRegionEnd: true,
}

// goroutine status values of GoStatus events (go122.GoStatus).
type goStatus uint64

const (
	statusBad goStatus = iota
	statusRunnable
	statusRunning
	statusSyscall
	statusWaiting
)

// ---------------------------------------------------------------------
// Block-reason mapping.

// blockReasonOf maps the runtime's block-reason string (plus the
// blocking stack, which disambiguates the generic "sync" reason) to the
// ECT vocabulary.
func blockReasonOf(reason string, si *stackInfo) trace.BlockReason {
	switch reason {
	case "chan send":
		return trace.BlockSend
	case "chan receive":
		return trace.BlockRecv
	case "select":
		return trace.BlockSelect
	case "sync.(*Cond).Wait":
		return trace.BlockCond
	case "sleep":
		return trace.BlockSleep
	case "network":
		return trace.BlockNet
	case "sync":
		return si.sync
	default:
		return trace.BlockNone
	}
}

// syncBlockReason resolves the generic "sync" block reason: the runtime
// lumps every semaphore-based primitive there, and the stack says which
// one.
func syncBlockReason(frames []frameInfo) trace.BlockReason {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f.fn, "sync.(*RWMutex).RLock"):
			return trace.BlockRMutex
		case strings.HasPrefix(f.fn, "sync.(*RWMutex).Lock"),
			strings.HasPrefix(f.fn, "sync.(*Mutex).Lock"):
			return trace.BlockMutex
		case strings.HasPrefix(f.fn, "sync.(*WaitGroup).Wait"):
			return trace.BlockWaitGroup
		case strings.HasPrefix(f.fn, "sync.(*Cond).Wait"):
			return trace.BlockCond
		case strings.HasPrefix(f.fn, "sync.(*Once)"):
			return trace.BlockSync
		}
	}
	return trace.BlockSync
}

// stackBlockReason infers why an already-parked goroutine (introduced
// by a GoStatusStack at a generation boundary) is waiting, from its
// current stack alone.
func stackBlockReason(frames []frameInfo) trace.BlockReason {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f.fn, "runtime.chansend"):
			return trace.BlockSend
		case strings.HasPrefix(f.fn, "runtime.chanrecv"):
			return trace.BlockRecv
		case strings.HasPrefix(f.fn, "runtime.selectgo"):
			return trace.BlockSelect
		case strings.HasPrefix(f.fn, "sync.(*RWMutex).RLock"):
			return trace.BlockRMutex
		case strings.HasPrefix(f.fn, "sync.(*RWMutex).Lock"),
			strings.HasPrefix(f.fn, "sync.(*Mutex).Lock"):
			return trace.BlockMutex
		case strings.HasPrefix(f.fn, "sync.(*WaitGroup).Wait"):
			return trace.BlockWaitGroup
		case strings.HasPrefix(f.fn, "sync.(*Cond).Wait"):
			return trace.BlockCond
		case strings.HasPrefix(f.fn, "time.Sleep"):
			return trace.BlockSleep
		}
	}
	return trace.BlockNone
}

// completionFor returns the ECT operation event a woken goroutine
// completes when it resumes — the native tracer only showed the park,
// so the operation itself is synthesized (Blocked: true, the same shape
// the virtual runtime emits for an op that parked before completing).
func completionFor(r trace.BlockReason) trace.Type {
	switch r {
	case trace.BlockSend:
		return trace.EvChanSend
	case trace.BlockRecv:
		return trace.EvChanRecv
	case trace.BlockMutex:
		return trace.EvMutexLock
	case trace.BlockRMutex:
		return trace.EvRLock
	case trace.BlockWaitGroup:
		return trace.EvWgWait
	case trace.BlockCond:
		return trace.EvCondWait
	case trace.BlockSelect:
		return trace.EvSelect
	case trace.BlockSleep:
		return trace.EvSleep
	default:
		return trace.EvNone
	}
}

// family is a resource family: block reasons whose sites may name the
// same object. Channel operations meet at one channel whichever side
// parked.
type family uint8

const (
	famNone family = iota // no resource identity to synthesize
	famChan
	famLock
	famWG
	famCond
	numFamilies
)

func resFamily(r trace.BlockReason) family {
	switch r {
	case trace.BlockSend, trace.BlockRecv, trace.BlockSelect:
		return famChan
	case trace.BlockMutex, trace.BlockRMutex:
		return famLock
	case trace.BlockWaitGroup:
		return famWG
	case trace.BlockCond:
		return famCond
	default:
		return famNone
	}
}

// userFrame picks the frame of the user statement that performed the
// operation: the first frame that is neither runtime internals nor the
// standard concurrency wrappers.
func userFrame(frames []frameInfo) (string, int) {
	for _, f := range frames {
		if f.fn == "" {
			continue
		}
		if strings.HasPrefix(f.fn, "runtime.") ||
			strings.HasPrefix(f.fn, "runtime/") ||
			strings.HasPrefix(f.fn, "sync.") ||
			strings.HasPrefix(f.fn, "syscall.") ||
			strings.HasPrefix(f.fn, "internal/") ||
			strings.HasPrefix(f.fn, "time.Sleep") {
			continue
		}
		return f.file, f.line
	}
	if len(frames) > 0 {
		return frames[0].file, frames[0].line
	}
	return "", 0
}

// rootFrame returns the outermost frame — the goroutine's entry
// function for creation stacks and status stacks.
func rootFrame(frames []frameInfo) frameInfo {
	if len(frames) == 0 {
		return frameInfo{}
	}
	return frames[len(frames)-1]
}

// systemRoot reports whether a goroutine whose root function is fn is
// runtime infrastructure rather than application code.
func systemRoot(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/trace.")
}

// systemBlockReason reports whether a native block-reason string only
// ever occurs on runtime-internal goroutines (GC workers, the
// finalizer, the trace reader) — never on application code.
func systemBlockReason(reason string) bool {
	switch reason {
	case "system goroutine wait",
		"GC background sweeper wait",
		"GC scavenge wait",
		"GC worker (idle)",
		"finalizer wait",
		"trace reader (blocked)",
		"wait for debug call":
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Pass 2: resource-identity correlation (union-find over sites).

// intern returns the key ID of a site, adding it as a singleton class.
func (c *converter) intern(k siteKey) int32 {
	id, ok := c.keyIDs[k]
	if !ok {
		id = int32(len(c.parent))
		c.keyIDs[k] = id
		c.parent = append(c.parent, id)
	}
	return id
}

func (c *converter) find(k int32) int32 {
	root := k
	for c.parent[root] != root {
		root = c.parent[root]
	}
	for c.parent[k] != root {
		c.parent[k], k = root, c.parent[k]
	}
	return root
}

// union merges two key classes. Which root survives is immaterial:
// ResIDs are assigned per class, in the order emission first uses one
// (resOf), never from the root's identity.
func (c *converter) union(a, b int32) {
	ra, rb := c.find(a), c.find(b)
	if ra != rb {
		c.parent[rb] = ra
	}
}

// correlate walks the events in emission order, pairing each unblock
// edge's wake site with the target's current block site. The two sites
// touched the same runtime object, so they fall into one identity
// bucket.
func (c *converter) correlate(order []uint32) {
	type park struct {
		key    int32 // 0: not parked at a keyed site
		family family
	}
	parked := make([]park, len(c.gs))
	evs := c.w.events
	for _, i := range order {
		r := &evs[i]
		switch r.typ {
		case wevGoBlock:
			if r.g < 0 {
				continue
			}
			si := c.stack(r.gen, r.args[1])
			family := resFamily(blockReasonOf(c.w.str(r.gen, r.args[0]), si))
			parked[r.g] = park{key: si.keys[family], family: family}
		case wevGoStatusStack:
			if goStatus(r.args[2]) != statusWaiting {
				continue
			}
			si := c.stack(r.gen, r.args[3])
			family := resFamily(si.parked)
			if key := si.keys[family]; key != 0 && parked[r.target].key == 0 {
				parked[r.target] = park{key: key, family: family}
			}
		case wevGoUnblock:
			p := parked[r.target]
			if p.key == 0 || r.g < 0 {
				continue
			}
			if wkey := c.stack(r.gen, r.args[2]).keys[p.family]; wkey != 0 {
				c.union(p.key, wkey)
			}
			parked[r.target] = park{}
		}
	}
}

// resOf assigns stable ResIDs to correlation classes in first-use
// order during emission.
func (c *converter) resOf(key int32) trace.ResID {
	if key == 0 {
		return 0
	}
	root := c.find(key)
	if int(root) >= len(c.res) {
		// Stacks first resolved during emission intern keys too.
		c.res = append(c.res, make([]trace.ResID, len(c.parent)-len(c.res))...)
	}
	if c.res[root] == 0 {
		c.nres++
		c.res[root] = trace.ResID(c.nres)
	}
	return c.res[root]
}

// ---------------------------------------------------------------------
// Pass 3: emission.

// emit appends an ECT event, stamping the next logical timestamp and
// recording the wall-clock offset of the ticks it was derived from.
func (c *converter) emit(e trace.Event) {
	e.Ts = int64(c.out.Len() + 1)
	c.out.Append(e)
	var wall int64
	if c.curTicks > c.minTs {
		wall = int64(float64(c.curTicks-c.minTs) * c.nsPerTick)
	}
	c.wall = append(c.wall, wall)
}

// introduce makes sure g exists in the ECT, synthesizing the orphan
// GoStart the window contract (trace.CapCreateObserved absent) allows.
// A goroutine created in-window was already introduced by its ECT
// GoCreate, so its GoStart is informational.
func (c *converter) introduce(st *gState) {
	if st.started {
		return
	}
	st.started = true
	st.introduced = true
	aux := int64(0)
	if st.system {
		aux = 1
	}
	if st.orphan || st.createFile == "" {
		c.orphans++
	}
	st.introAt = c.out.Len()
	c.emit(trace.Event{G: trace.GoID(st.id), Type: trace.EvGoStart,
		File: st.createFile, Line: st.createLine, Aux: aux, Str: st.name})
}

// park records a block at si's user site and emits its EvGoBlock.
func (c *converter) park(st *gState, reason trace.BlockReason, si *stackInfo, ts uint64) {
	st.blocked = true
	st.blockReason = reason
	st.blockFile = si.userFile
	st.blockLine = si.userLine
	st.blockKey = si.keys[resFamily(reason)]
	st.blockTs = ts
	c.emit(trace.Event{G: trace.GoID(st.id), Type: trace.EvGoBlock,
		Aux: int64(reason), Res: c.resOf(st.blockKey), File: si.userFile, Line: si.userLine})
}

// convert runs all three passes and returns the finished artifacts.
func (c *converter) convert() error {
	order, err := c.attribute()
	if err != nil {
		return err
	}
	c.correlate(order)
	bound := c.ectBound()
	c.out = trace.New(bound)
	c.wall = make([]int64, 0, bound)

	evs := c.w.events
	for _, i := range order {
		r := &evs[i]
		c.curTicks = r.ts
		switch r.typ {
		case wevGoCreate, wevGoCreateBlocked:
			childStack := c.stack(r.gen, r.args[1])
			parentStack := c.stack(r.gen, r.args[2])
			cs := c.g(r.target)
			cs.name = childStack.root.fn
			cs.system = childStack.systemRoot
			cs.createFile, cs.createLine = parentStack.userFile, parentStack.userLine
			if r.g < 0 {
				// Creator unknown (no goroutine attributed to this M):
				// the child will introduce itself as an orphan.
				cs.orphan = true
				continue
			}
			ps := c.g(r.g)
			c.ensureRunning(ps)
			if cs.introduced {
				// Corrupt input: the child already appeared (possibly as
				// its own creator), and an ECT goroutine is introduced
				// exactly once.
				continue
			}
			cs.introduced = true
			c.created++
			aux := int64(0)
			if cs.system {
				aux = 1
			}
			c.creates = append(c.creates, childRef{at: c.out.Len(), child: r.target})
			c.emit(trace.Event{G: trace.GoID(ps.id), Type: trace.EvGoCreate,
				Peer: trace.GoID(cs.id), File: cs.createFile, Line: cs.createLine, Aux: aux, Str: cs.name})

		case wevGoStart:
			st := c.g(r.target)
			if !st.started {
				if !st.introduced {
					st.orphan = true
				}
				c.introduce(st)
			}
			if st.pendingCompletion != trace.EvNone {
				e := trace.Event{G: trace.GoID(st.id), Type: st.pendingCompletion,
					Res: c.resOf(st.blockKey), Blocked: true,
					File: st.blockFile, Line: st.blockLine}
				if st.pendingCompletion == trace.EvChanRecv {
					e.Aux = 1 // value received (close-observation is unknowable)
				}
				c.emit(e)
				st.pendingCompletion = trace.EvNone
			}
			st.blocked = false

		case wevGoBlock:
			if r.g < 0 {
				continue
			}
			st := c.g(r.g)
			c.ensureRunning(st)
			si := c.stack(r.gen, r.args[1])
			reasonStr := c.w.str(r.gen, r.args[0])
			reason := blockReasonOf(reasonStr, si)
			// A goroutine introduced without a stack (plain GoStatus)
			// reveals itself at its first park: the block stack's root
			// is its entry function, and runtime-infrastructure block
			// reasons mark runtime-internal goroutines.
			if st.name == "" && si.root.fn != "" {
				st.name = si.root.fn
			}
			if st.id != 1 && !st.system && (systemBlockReason(reasonStr) || si.systemRoot) {
				st.system = true
			}
			c.park(st, reason, si, r.ts)

		case wevGoSyscallBegin:
			// [p_seq, stack]: the goroutine enters a system call. The ECT
			// models it as a distinct park (BlockSyscall) so block
			// profiles and census detectors never lump kernel-side waits
			// into scheduler-parked reasons.
			if r.g < 0 {
				continue
			}
			st := c.g(r.g)
			c.ensureRunning(st)
			c.park(st, trace.BlockSyscall, c.stack(r.gen, r.args[1]), r.ts)

		case wevGoSyscallEnd, wevGoSyscallEndBl:
			// The syscall returned. The runtime connects no waker to this
			// edge (the kernel did the work), so the ECT records a
			// self-unblock: it closes the BlockSyscall span without
			// inventing a happens-before edge or a worker-shaped wake.
			if r.g < 0 {
				continue
			}
			st := c.g(r.g)
			if !st.blocked || st.blockReason != trace.BlockSyscall {
				continue // unmatched end at a window edge
			}
			st.blocked = false
			c.emit(trace.Event{G: trace.GoID(st.id), Type: trace.EvGoUnblock,
				Peer: trace.GoID(st.id), File: st.blockFile, Line: st.blockLine})

		case wevGoUnblock:
			ts := c.g(r.target)
			ts.pendingCompletion = completionFor(ts.blockReason)
			ts.wakes++
			if r.g < 0 {
				// Runtime-internal wake (netpoll, timer): no attributable
				// waker, so the HB edge is dropped.
				c.droppedWakes++
				continue
			}
			st := c.g(r.g)
			c.ensureRunning(st)
			si := c.stack(r.gen, r.args[2])
			c.emit(trace.Event{G: trace.GoID(st.id), Type: trace.EvGoUnblock,
				Peer: trace.GoID(ts.id), Res: c.resOf(ts.blockKey), File: si.userFile, Line: si.userLine})

		case wevGoDestroy, wevGoDestroySysc:
			if r.g < 0 {
				continue
			}
			st := c.g(r.g)
			c.ensureRunning(st)
			st.ended = true
			st.blocked = false
			c.emit(trace.Event{G: trace.GoID(st.id), Type: trace.EvGoEnd})

		case wevGoSwitch, wevGoSwitchDestroy:
			// Coroutine switch: the target continues immediately; the
			// yielding goroutine's park (and, for switch-destroy, its
			// end) is not separately recorded by the native tracer, so
			// only the target's introduction is reconstructible.
			c.ensureRunning(c.g(r.target))

		case wevGoStop:
			if r.g < 0 {
				continue
			}
			st := c.g(r.g)
			c.ensureRunning(st)
			typ := trace.EvGoSched
			if c.w.str(r.gen, r.args[0]) == "preempted" {
				typ = trace.EvGoPreempt
			}
			c.emit(trace.Event{G: trace.GoID(st.id), Type: typ})

		case wevGoStatus, wevGoStatusStack:
			st := c.g(r.target)
			if st.started {
				continue // later-generation re-announcement
			}
			si := &c.noStack
			if r.typ == wevGoStatusStack {
				si = c.stack(r.gen, r.args[3])
				if st.name == "" {
					st.name = si.root.fn
				}
				st.system = si.systemRoot && st.id != 1
			}
			st.orphan = !st.introduced
			c.introduce(st)
			switch goStatus(r.args[2]) {
			case statusWaiting:
				c.park(st, si.parked, si, r.ts)
			case statusSyscall:
				// Announced mid-syscall at a generation boundary: parked
				// kernel-side until its GoSyscallEnd arrives.
				c.park(st, trace.BlockSyscall, si, r.ts)
			}

		case wevUserLog:
			if r.g < 0 {
				continue
			}
			st := c.g(r.g)
			c.ensureRunning(st)
			si := c.stack(r.gen, r.args[3])
			key := c.w.str(r.gen, r.args[1])
			val := c.w.str(r.gen, r.args[2])
			msg := val
			if key != "" {
				msg = key + "=" + val
			}
			c.emit(trace.Event{G: trace.GoID(st.id), Type: trace.EvUserLog,
				File: si.userFile, Line: si.userLine, Str: msg})

		case wevUserRegionBegin, wevUserRegionEnd:
			if r.g < 0 {
				continue
			}
			st := c.g(r.g)
			c.ensureRunning(st)
			si := c.stack(r.gen, r.args[2])
			name := c.w.str(r.gen, r.args[1])
			edge := "begin"
			if r.typ == wevUserRegionEnd {
				edge = "end"
			}
			c.emit(trace.Event{G: trace.GoID(st.id), Type: trace.EvUserLog,
				File: si.userFile, Line: si.userLine, Str: "region " + edge + ": " + name})
		}
	}

	// Some goroutines reveal their system-ness only after their
	// introduction was emitted (a stackless GoStatus followed by a park
	// with a runtime-infrastructure reason). Re-stamp the provenance
	// marker on their introduction events so consumers that classify at
	// adoption time (GoatStream, the goroutine tree) agree.
	events := c.out.Events
	for i := range c.gs {
		if st := &c.gs[i]; st.system && st.started {
			e := &events[st.introAt]
			e.Aux = 1
			if e.Str == "" {
				e.Str = st.name
			}
		}
	}
	for _, cr := range c.creates {
		if c.gs[cr.child].system {
			events[cr.at].Aux = 1
		}
	}
	return nil
}

// ensureRunning introduces a goroutine the attribution saw acting
// before any explicit start (possible at a window edge where the
// GoStart fell into the previous, unrecorded generation).
func (c *converter) ensureRunning(st *gState) {
	if !st.started {
		if !st.introduced {
			st.orphan = true
		}
		c.introduce(st)
	}
}
