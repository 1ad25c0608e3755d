//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"

	"goat/internal/trace"
)

// A host is a pooled runtime coroutine (iter.Pull) that lends its stack
// to simulated goroutines, one at a time. The scheduler switches into a
// host with next; the hosted goroutine switches back out with yield when
// it leaves the processor, and the host yields once more, reporting the
// end, when the goroutine's job is over. A coroutine switch hands the
// thread straight from one goroutine to the other without waking the Go
// scheduler, and exactly one side runs at a time, so simulator state
// needs no locks and every recorded schedule is what a strict ping-pong
// between the scheduler loop and the running goroutine would produce.
//
// Hosts are pooled across simulated lifetimes and across runs: a fresh
// iter.Pull costs more than the switches it saves on a short goroutine,
// and a pooled host keeps its grown stack warm. Only the scheduler
// returns a host to the pool, after next has returned with the job
// ended. A host that put itself back before yielding could be taken and
// resumed by another scheduler (engine.Parallel workers share the pool)
// while it was still running, and next must never run concurrently.
//
// A host that still holds a job is never discarded with stop, which
// would throw the coroutine away instead of pooling it. stopWorld
// resumes every unfinished goroutine with the scheduler stopping; it
// unwinds with a stopSignal panic, runs its defers, and ends its job like
// any other. stop only retires idle hosts beyond hostFreeCap.
//
// Because a coroutine switch never enters the Go scheduler, dispatch
// yields the real processor every 64 dispatches so that the garbage
// collector's workers still get to run at GOMAXPROCS 1.
//
// The go1.23 build constraint raises this file's language version above
// the module's go 1.22 line, as go vet requires of an iter importer; the
// toolchain line in go.mod selects a Go that has iter.
type host struct {
	next  func() (ended, ok bool) // switch in; ended reports the job is over
	stop  func()
	yield func(ended bool) bool // switch out
	g     *G
	fn    func(*G)
}

// hostFree is the global pool of idle hosts. It is a plain mutex-held
// list rather than a sync.Pool: dropping a host object would strand its
// parked coroutine forever, so hosts must only leave the pool by being
// handed a job or by an explicit stop when the pool is full.
var hostFree struct {
	sync.Mutex
	list []*host
}

// hostFreeCap bounds the idle-host pool; a release beyond it stops the
// host so idle processes do not pin stacks without bound.
const hostFreeCap = 4096

func getHost() *host {
	hostFree.Lock()
	if n := len(hostFree.list); n > 0 {
		h := hostFree.list[n-1]
		hostFree.list[n-1] = nil
		hostFree.list = hostFree.list[:n-1]
		hostFree.Unlock()
		return h
	}
	hostFree.Unlock()
	h := &host{}
	h.next, h.stop = iter.Pull(h.serve)
	return h
}

func putHost(h *host) {
	hostFree.Lock()
	if len(hostFree.list) < hostFreeCap {
		hostFree.list = append(hostFree.list, h)
		hostFree.Unlock()
		return
	}
	hostFree.Unlock()
	h.stop()
}

// serve is the coroutine body: one job per resumption from the pool, each
// ended by yielding true.
func (h *host) serve(yield func(bool) bool) {
	h.yield = yield
	for {
		h.run()
		h.g, h.fn = nil, nil
		if !yield(true) {
			return
		}
	}
}

// switchTo runs g on its host until g leaves the processor, and returns
// the host to the pool if g's job ended.
func (s *Scheduler) switchTo(g *G) {
	if ended, _ := g.host.next(); ended {
		putHost(g.host)
		g.host = nil
	}
}

// run hosts one simulated goroutine from its first dispatch to its end.
func (h *host) run() {
	g, s := h.g, h.g.s
	if s.stopping {
		return // stopped before its first dispatch
	}
	g.state = StateRunning
	s.Emit(trace.Event{G: g.id, Type: trace.EvGoStart})
	defer func() {
		r := recover()
		switch r.(type) {
		case nil:
			g.state = StateDone
			s.Emit(trace.Event{G: g.id, Type: trace.EvGoEnd})
		case stopSignal:
			// Unwound by stopWorld: the world is already classified.
		default:
			g.state = StatePanicked
			s.panicked = true
			s.panicVal = r
			s.panicG = g.id
			s.Emit(trace.Event{G: g.id, Type: trace.EvGoPanic, Str: fmt.Sprint(r)})
		}
	}()
	h.fn(g)
}
