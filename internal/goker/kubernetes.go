package goker

import (
	"goat/internal/conc"
	"goat/internal/sim"
)

func init() {
	register(Kernel{
		ID: "kubernetes_1321", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "PDL", Rare: true,
		Description: "watch mux: a watcher unregisters while the distributor is blocked sending to its unbuffered result channel; the distributor leaks.",
		Main:        kubernetes1321,
	})
	register(Kernel{
		ID: "kubernetes_5316", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "PDL",
		Description: "kubelet prober: result is sent to an unbuffered channel after the receiver returned on an earlier error.",
		Main:        kubernetes5316,
	})
	register(Kernel{
		ID: "kubernetes_6632", Project: "kubernetes", Cause: MixedDeadlock, Expect: "PDL", Rare: true,
		Description: "kubelet: a writer holds the pod-status lock while sending on a full channel; the channel drainer needs the same lock first (the bug only GoAT detected).",
		Main:        kubernetes6632,
	})
	register(Kernel{
		ID: "kubernetes_10182", Project: "kubernetes", Cause: ResourceDeadlock, Expect: "GDL", Rare: true,
		Description: "controller-manager: status updater and node monitor take the node lock and the store lock in opposite orders.",
		Main:        kubernetes10182,
	})
	register(Kernel{
		ID: "kubernetes_11298", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "GDL", Rare: true,
		Description: "scheduler extender: nested selects in nested loops over signal channels plus a condition variable; the coverage case study (Fig. 6b).",
		Main:        kubernetes11298,
	})
	register(Kernel{
		ID: "kubernetes_13135", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "PDL", Rare: true,
		Description: "storage cacher: Stop flips the stopped flag without broadcasting; a reflector already parked in cond.Wait leaks.",
		Main:        kubernetes13135,
	})
	register(Kernel{
		ID: "kubernetes_16851", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "PDL",
		Description: "e2e framework: error path returns before draining the results channel; all workers leak on send.",
		Main:        kubernetes16851,
	})
	register(Kernel{
		ID: "kubernetes_25331", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "PDL",
		Description: "watch chan: cancellation closes the stop channel but the event loop's select forgets to watch it, leaking the loop.",
		Main:        kubernetes25331,
	})
	register(Kernel{
		ID: "kubernetes_26980", Project: "kubernetes", Cause: MixedDeadlock, Expect: "PDL",
		Description: "pod worker: processNextWorkItem holds the queue lock while pushing to an unbuffered channel whose consumer needs the lock.",
		Main:        kubernetes26980,
	})
	register(Kernel{
		ID: "kubernetes_30872", Project: "kubernetes", Cause: ResourceDeadlock, Expect: "GDL",
		Description: "federation controller: RemoveCluster's error path forgets to release the cluster lock; the next reconcile blocks forever.",
		Main:        kubernetes30872,
	})
	register(Kernel{
		ID: "kubernetes_38669", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "PDL",
		Description: "cacher watch: dispatchEvent sends to a stopped watcher's channel; without the terminated check the dispatcher leaks.",
		Main:        kubernetes38669,
	})
	register(Kernel{
		ID: "kubernetes_58107", Project: "kubernetes", Cause: ResourceDeadlock, Expect: "GDL", Rare: true,
		Description: "resource quota: readers of the registry RWMutex deadlock with a writer when a reader re-enters RLock after the writer queued.",
		Main:        kubernetes58107,
	})
	register(Kernel{
		ID: "kubernetes_62464", Project: "kubernetes", Cause: ResourceDeadlock, Expect: "GDL", Rare: true,
		Description: "CPU manager: reconcileState and removeContainer take the state lock and the container lock in opposite orders.",
		Main:        kubernetes62464,
	})
	register(Kernel{
		ID: "kubernetes_70277", Project: "kubernetes", Cause: CommunicationDeadlock, Expect: "GDL", Rare: true,
		Description: "wait.poller: the until loop misses the done signal when the tick and the stop race; the poller waits on a channel nobody feeds.",
		Main:        kubernetes70277,
	})
}

// kubernetes1321: the watcher's error path forgets to unregister, so the
// distributor stays parked on its send case forever.
func kubernetes1321(g *sim.G) {
	result := conc.NewChan[int](g, 0)
	unregistered := conc.NewChan[struct{}](g, 0)
	errCh := conc.NewChan[struct{}](g, 0)
	g.Go("distributor", func(c *sim.G) {
		for i := 0; i < 2; i++ {
			idx, _, _ := conc.Select(c, []conc.Case{
				conc.CaseSend(result, i),
				conc.CaseRecv(unregistered),
			}, false)
			if idx == 1 {
				return
			}
		}
	})
	g.Go("failer", func(c *sim.G) { errCh.Close(c) })
	g.Go("watcher", func(c *sim.G) {
		for {
			idx, _, _ := conc.Select(c, []conc.Case{
				conc.CaseRecv(result),
				conc.CaseRecv(errCh),
			}, false)
			if idx == 1 {
				return // BUG: error path forgets close(unregistered)
			}
		}
	})
	conc.Sleep(g, 200)
}

// kubernetes5316: probe result sent after the manager errored out.
func kubernetes5316(g *sim.G) {
	results := conc.NewChan[string](g, 0)
	g.Go("prober", func(c *sim.G) {
		results.Send(c, "healthy") // leaks: manager returned early
	})
	managerFailed := true
	if managerFailed {
		return
	}
	results.Recv(g)
}

// kubernetes6632: the writer checks buffer occupancy outside the
// send, so a filler landing inside the narrow check-to-send window makes
// the guarded send block holding the lock the drainer needs. The window
// only opens under a preemption between the writer's check and its send —
// the bug the paper reports only GoAT (after a couple of executions)
// could expose.
func kubernetes6632(g *sim.G) {
	mu := conc.NewMutex(g)
	updates := conc.NewChan[int](g, 1)
	gate := conc.NewChan[struct{}](g, 1)
	g.Go("writer", func(c *sim.G) {
		gate.TrySend(c, struct{}{}) // announce the update round
		if updates.Len(c) == 0 {    // believed-free buffer...
			mu.Lock(c)
			updates.Send(c, 1) // ...BUG: may have filled meanwhile
			mu.Unlock(c)
		}
	})
	g.Go("poker", func(c *sim.G) {
		if gate.Len(c) == 0 { // no round announced: pre-fill the cache
			if updates.Len(c) == 0 {
				updates.TrySend(c, 0)
			}
		}
	})
	g.Go("drainer", func(c *sim.G) {
		mu.Lock(c) // takes the lock before draining
		if updates.Len(c) > 0 {
			updates.Recv(c)
		}
		mu.Unlock(c)
	})
	conc.Sleep(g, 300)
}

// kubernetes10182: AB-BA between node lock and store lock.
func kubernetes10182(g *sim.G) {
	nodeLock := conc.NewMutex(g)
	storeLock := conc.NewMutex(g)
	wg := conc.NewWaitGroup(g)
	wg.Add(g, 2)
	g.Go("statusUpdater", func(c *sim.G) {
		nodeLock.Lock(c)
		storeLock.Lock(c)
		storeLock.Unlock(c)
		nodeLock.Unlock(c)
		wg.Done(c)
	})
	g.Go("nodeMonitor", func(c *sim.G) {
		storeLock.Lock(c)
		nodeLock.Lock(c)
		nodeLock.Unlock(c)
		storeLock.Unlock(c)
		wg.Done(c)
	})
	wg.Wait(g)
}

// kubernetes11298: nested selects in nested loops with a signal fan-in —
// the Fig. 6b coverage case study. The stop broadcast can be missed when
// the inner select commits to the data case at the same instant.
func kubernetes11298(g *sim.G) {
	data := conc.NewChan[int](g, 1)
	signal := conc.NewChan[struct{}](g, 0)
	done := conc.NewChan[struct{}](g, 0)
	mu := conc.NewMutex(g)
	cond := conc.NewCond(g, mu)

	g.Go("extender", func(c *sim.G) {
		for round := 0; ; round++ {
			stop := false
			for {
				idx, _, ok := conc.Select(c, []conc.Case{
					conc.CaseRecv(data),
					conc.CaseRecv(signal),
				}, false)
				if idx == 1 || !ok {
					stop = true
					break
				}
				inner, _, _ := conc.Select(c, []conc.Case{
					conc.CaseSend(data, round),
					conc.CaseRecv(done),
				}, true)
				if inner == 1 {
					stop = true
					break
				}
				if inner == conc.DefaultIdx {
					break
				}
			}
			if stop {
				mu.Lock(c)
				cond.Signal(c) // BUG: fires even if the waiter is not waiting yet
				mu.Unlock(c)
				done.Close(c)
				return
			}
		}
	})
	g.Go("feeder", func(c *sim.G) {
		data.Send(c, 0)
		signal.Close(c) // stop request
	})
	mu.Lock(g)
	cond.Wait(g) // BUG: unconditional wait misses an early signal
	mu.Unlock(g)
	done.Recv(g)
}

// kubernetes13135: Stop flips the flag but never broadcasts; a reflector
// that managed to park in cond.Wait first leaks forever.
func kubernetes13135(g *sim.G) {
	mu := conc.NewMutex(g)
	cond := conc.NewCond(g, mu)
	stopped := false
	g.Go("reflector", func(c *sim.G) {
		mu.Lock(c)
		for !stopped {
			cond.Wait(c) // BUG: Stop never signals; leaks if parked first
		}
		mu.Unlock(c)
	})
	mu.Lock(g)
	stopped = true
	mu.Unlock(g)
}

// kubernetes16851: workers all block sending results nobody drains.
func kubernetes16851(g *sim.G) {
	results := conc.NewChan[int](g, 0)
	for i := 0; i < 3; i++ {
		i := i
		g.Go("worker", func(c *sim.G) {
			results.Send(c, i) // leaks: collector returns early below
		})
	}
	setupFailed := true
	if setupFailed {
		return // BUG: early return without draining results
	}
	for i := 0; i < 3; i++ {
		results.Recv(g)
	}
}

// kubernetes25331: event loop's select does not watch the stop channel.
func kubernetes25331(g *sim.G) {
	events := conc.NewChan[int](g, 0)
	stop := conc.NewChan[struct{}](g, 0)
	g.Go("eventLoop", func(c *sim.G) {
		for {
			// BUG: select should include CaseRecv(stop).
			v, ok := events.Recv(c)
			if !ok {
				return
			}
			_ = v
		}
	})
	g.Go("canceller", func(c *sim.G) {
		stop.Close(c) // nobody is watching
	})
	events.Send(g, 1)
	// main returns; the loop leaks blocked on the next Recv
}

// kubernetes26980: queue lock held across an unbuffered handoff.
func kubernetes26980(g *sim.G) {
	queueLock := conc.NewMutex(g)
	work := conc.NewChan[int](g, 0)
	g.Go("processNext", func(c *sim.G) {
		queueLock.Lock(c)
		work.Send(c, 7) // blocks holding the lock until a consumer arrives
		queueLock.Unlock(c)
	})
	g.Go("consumer", func(c *sim.G) {
		queueLock.Lock(c) // BUG: consumer takes the lock before receiving
		work.Recv(c)
		queueLock.Unlock(c)
	})
	conc.Sleep(g, 200)
}

// kubernetes30872: error path leaks the cluster lock.
func kubernetes30872(g *sim.G) {
	clusterLock := conc.NewMutex(g)
	removeCluster := func(c *sim.G, fail bool) {
		clusterLock.Lock(c)
		if fail {
			return // BUG: missing Unlock
		}
		clusterLock.Unlock(c)
	}
	removeCluster(g, true)
	removeCluster(g, false) // blocks forever
}

// kubernetes38669: dispatch to a watcher that stopped.
func kubernetes38669(g *sim.G) {
	ch := conc.NewChan[int](g, 1)
	ch.Send(g, 0) // watcher's buffer is full at stop time
	g.Go("dispatcher", func(c *sim.G) {
		ch.Send(c, 1) // BUG: no terminated check; leaks on the full buffer
	})
	// The watcher stops without draining.
	g.Yield()
}

// kubernetes58107: reader re-enters RLock behind a queued writer.
func kubernetes58107(g *sim.G) {
	registry := conc.NewRWMutex(g)
	g.Go("resync", func(c *sim.G) {
		registry.Lock(c)
		registry.Unlock(c)
	})
	registry.RLock(g)
	registry.RLock(g) // deadlocks when resync's writer queued in between
	registry.RUnlock(g)
	registry.RUnlock(g)
}

// kubernetes62464: AB-BA between the state lock and the container lock.
func kubernetes62464(g *sim.G) {
	stateLock := conc.NewMutex(g)
	containerLock := conc.NewMutex(g)
	wg := conc.NewWaitGroup(g)
	wg.Add(g, 2)
	g.Go("reconcile", func(c *sim.G) {
		stateLock.Lock(c)
		containerLock.Lock(c)
		containerLock.Unlock(c)
		stateLock.Unlock(c)
		wg.Done(c)
	})
	g.Go("remove", func(c *sim.G) {
		containerLock.Lock(c)
		stateLock.Lock(c)
		stateLock.Unlock(c)
		containerLock.Unlock(c)
		wg.Done(c)
	})
	wg.Wait(g)
}

// kubernetes70277: the poll loop's done handoff is missed under one
// commit order and main waits on a channel nobody will feed.
func kubernetes70277(g *sim.G) {
	tick := conc.NewChan[struct{}](g, 1)
	stop := conc.NewChan[struct{}](g, 0)
	done := conc.NewChan[struct{}](g, 0)
	g.Go("poller", func(c *sim.G) {
		tick.Send(c, struct{}{})
		for {
			idx, _, _ := conc.Select(c, []conc.Case{
				conc.CaseRecv(tick),
				conc.CaseRecv(stop),
			}, false)
			if idx == 1 {
				return // BUG: returns without sending done
			}
			done.Send(c, struct{}{})
			return
		}
	})
	g.Go("stopper", func(c *sim.G) {
		stop.Close(c)
	})
	done.Recv(g) // deadlocks when the poller took the stop case
}
