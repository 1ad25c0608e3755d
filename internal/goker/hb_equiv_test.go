package goker

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"goat/internal/conc"
	"goat/internal/hb"
	"goat/internal/race"
	"goat/internal/sim"
	"goat/internal/trace"
)

// The happens-before layer must be insensitive to how events reach it:
// for every registered kernel, an hb.Engine attached live as an event
// sink builds the same graph as a post-hoc replay of the buffered trace,
// in both edge modes. And the rebased race checker must report exactly
// what the pre-rebase implementation (embedded below as a reference)
// reported, on every kernel.

func TestHBStreamingEqualsPostHoc(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			for _, mode := range []hb.Mode{hb.Full, hb.Must} {
				live := hb.NewEngine(mode)
				opts := sim.Options{Seed: 3, Delays: 2, MaxSteps: 50000}
				opts.Sinks = []trace.Sink{live}
				r := Run(k, opts)
				post := hb.FromTrace(r.Trace, mode)
				if !live.Snapshot().Equal(post) {
					t.Fatalf("mode %d: streaming graph differs from post-hoc (events %d vs %d, footprint %x vs %x)",
						mode, live.Events(), post.Events, live.Footprint(), post.Footprint)
				}
			}
		})
	}
}

func TestRaceCheckerMatchesLegacy(t *testing.T) {
	compare := func(t *testing.T, tr *trace.Trace) int {
		t.Helper()
		got := race.Check(tr)
		want := legacyCheck(tr)
		if len(got) != len(want) {
			t.Fatalf("race count: got %d, legacy %d", len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("race %d:\n  got    %s\n  legacy %s", i, got[i], want[i])
			}
		}
		return len(got)
	}
	// Every kernel trace (no Shared cells — both checkers must agree on
	// reporting nothing, exercising the full edge vocabulary).
	for _, k := range All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			r := Run(k, sim.Options{Seed: 3, Delays: 2, MaxSteps: 50000})
			compare(t, r.Trace)
		})
	}
	// Synthetic racy programs, so the comparison is exercised on non-empty
	// reports too (the kernels do not touch Shared cells).
	racy := map[string]func(*sim.G){
		"plain-writes": func(g *sim.G) {
			x := conc.NewShared(g, "x", 0)
			wg := conc.NewWaitGroup(g)
			for i := 0; i < 3; i++ {
				wg.Add(g, 1)
				g.Go("w", func(c *sim.G) {
					x.Store(c, 1)
					wg.Done(c)
				})
			}
			wg.Wait(g)
		},
		"read-vs-write": func(g *sim.G) {
			x := conc.NewShared(g, "flag", 0)
			done := conc.NewChan[int](g, 0)
			g.Go("reader", func(c *sim.G) {
				x.Load(c)
				done.Send(c, 1)
			})
			x.Store(g, 1)
			done.Recv(g)
		},
		"mixed-sync": func(g *sim.G) {
			x := conc.NewShared(g, "v", 0)
			mu := conc.NewMutex(g)
			done := conc.NewChan[int](g, 1)
			g.Go("locked", func(c *sim.G) {
				mu.Lock(c)
				x.Store(c, 2)
				mu.Unlock(c)
				done.Send(c, 1)
			})
			x.Store(g, 1) // not under mu: races with the locked writer
			done.Recv(g)
		},
	}
	nonEmpty := 0
	for name, prog := range racy {
		name, prog := name, prog
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				r := sim.Run(sim.Options{Seed: seed, PreemptProb: -1}, prog)
				if compare(t, r.Trace) > 0 {
					nonEmpty++
				}
			}
		})
	}
	if nonEmpty == 0 {
		t.Error("no synthetic program produced a race — the equivalence check is vacuous")
	}
}

// ---------------------------------------------------------------------
// The pre-rebase race checker, verbatim in structure: a self-contained
// vector-clock replay whose output race.Check must reproduce exactly.

type legacyVC map[trace.GoID]int64

func (v legacyVC) clone() legacyVC {
	out := make(legacyVC, len(v))
	for g, t := range v {
		out[g] = t
	}
	return out
}

func (v legacyVC) join(other legacyVC) {
	for g, t := range other {
		if t > v[g] {
			v[g] = t
		}
	}
}

func (v legacyVC) leq(other legacyVC) bool {
	for g, t := range v {
		if t > other[g] {
			return false
		}
	}
	return true
}

type legacyAccess struct {
	g     trace.GoID
	write bool
	file  string
	line  int
	name  string
	ts    int64
	vc    legacyVC
}

func (a legacyAccess) kind() string {
	if a.write {
		return "write"
	}
	return "read"
}

func legacyCheck(tr *trace.Trace) []race.Race {
	if tr == nil {
		return nil
	}
	clocks := map[trace.GoID]legacyVC{}
	clockOf := func(g trace.GoID) legacyVC {
		if c, ok := clocks[g]; ok {
			return c
		}
		c := legacyVC{}
		clocks[g] = c
		return c
	}

	lockVC := map[trace.ResID]legacyVC{}
	closeVC := map[trace.ResID]legacyVC{}
	sendVC := map[trace.ResID][]legacyVC{}
	wgVC := map[trace.ResID]legacyVC{}

	lastWrite := map[trace.ResID]*legacyAccess{}
	reads := map[trace.ResID][]legacyAccess{}

	var races []race.Race
	seen := map[string]bool{}
	report := func(res trace.ResID, a, b legacyAccess) {
		key := fmt.Sprintf("%d|%s:%d|%s:%d", res, a.file, a.line, b.file, b.line)
		if seen[key] {
			return
		}
		seen[key] = true
		races = append(races, race.Race{
			Var:    res,
			Name:   b.name,
			First:  race.Conflict{G: a.g, Kind: a.kind(), File: a.file, Line: a.line, Ts: a.ts},
			Second: race.Conflict{G: b.g, Kind: b.kind(), File: b.file, Line: b.line, Ts: b.ts},
		})
	}

	for _, e := range tr.Events {
		vc := clockOf(e.G)
		vc[e.G]++

		switch e.Type {
		case trace.EvGoCreate:
			child := vc.clone()
			child[e.Peer] = child[e.Peer] + 1
			clocks[e.Peer] = child
		case trace.EvGoUnblock:
			if e.Peer != 0 && e.Peer != e.G {
				clockOf(e.Peer).join(vc)
			}
		case trace.EvGoBlock:
			if e.BlockReason() == trace.BlockSend {
				sendVC[e.Res] = append(sendVC[e.Res], vc.clone())
			}
		case trace.EvChanSend:
			if !e.Blocked && e.Peer == 0 {
				sendVC[e.Res] = append(sendVC[e.Res], vc.clone())
			}
		case trace.EvChanRecv:
			if !e.Blocked && e.Aux == 1 {
				if q := sendVC[e.Res]; len(q) > 0 {
					vc.join(q[0])
					sendVC[e.Res] = q[1:]
				}
			}
			if e.Aux == 0 {
				if cvc, ok := closeVC[e.Res]; ok {
					vc.join(cvc)
				}
			}
		case trace.EvSelectCase:
			if e.Blocked {
				break
			}
			if e.Str == "send" && e.Peer == 0 {
				sendVC[e.Res] = append(sendVC[e.Res], vc.clone())
			}
			if e.Str == "recv" {
				if q := sendVC[e.Res]; len(q) > 0 {
					vc.join(q[0])
					sendVC[e.Res] = q[1:]
				}
			}
		case trace.EvChanClose:
			closeVC[e.Res] = vc.clone()
		case trace.EvMutexUnlock, trace.EvRWUnlock, trace.EvRUnlock:
			acc, ok := lockVC[e.Res]
			if !ok {
				acc = legacyVC{}
				lockVC[e.Res] = acc
			}
			acc.join(vc)
		case trace.EvMutexLock, trace.EvRWLock, trace.EvRLock:
			if acc, ok := lockVC[e.Res]; ok {
				vc.join(acc)
			}
		case trace.EvWgAdd:
			if e.Aux < 0 {
				acc, ok := wgVC[e.Res]
				if !ok {
					acc = legacyVC{}
					wgVC[e.Res] = acc
				}
				acc.join(vc)
			}
		case trace.EvWgWait:
			if acc, ok := wgVC[e.Res]; ok {
				vc.join(acc)
			}
		case trace.EvVarRead:
			a := legacyAccess{g: e.G, file: e.File, line: e.Line, name: e.Str, ts: e.Ts, vc: vc.clone()}
			if w := lastWrite[e.Res]; w != nil && w.g != a.g && !w.vc.leq(a.vc) {
				report(e.Res, *w, a)
			}
			reads[e.Res] = append(reads[e.Res], a)
		case trace.EvVarWrite:
			a := legacyAccess{g: e.G, write: true, file: e.File, line: e.Line, name: e.Str, ts: e.Ts, vc: vc.clone()}
			if w := lastWrite[e.Res]; w != nil && w.g != a.g && !w.vc.leq(a.vc) {
				report(e.Res, *w, a)
			}
			for _, r := range reads[e.Res] {
				if r.g != a.g && !r.vc.leq(a.vc) {
					report(e.Res, r, a)
				}
			}
			w := a
			lastWrite[e.Res] = &w
			reads[e.Res] = nil
		}
	}
	sort.Slice(races, func(i, j int) bool { return races[i].Second.Ts < races[j].Second.Ts })
	return races
}

// ---------------------------------------------------------------------
// Sparse goroutine IDs. Native captures number goroutines sparsely and
// large (the runtime's goid counter), while clocks are indexed by a
// dense per-engine slot. A clock indexed by GoID instead of slot still
// compiles, so this battery relabels every kernel trace onto sparse,
// large IDs and checks the engine against an independent GoID-keyed
// replay: every pairwise Leq/Concurrent answer must agree, and the
// footprints must keep the values a GoID-keyed engine folds.

// sparseGoID maps a kernel's dense goroutine IDs onto IDs of the shape
// native captures produce.
func sparseGoID(g trace.GoID) trace.GoID {
	switch g {
	case 0, 1:
		return g
	case 2:
		return 7_000_001
	case 3:
		return 1 << 40
	}
	return 1<<40 + g*7_000_001
}

func sparseTrace(tr *trace.Trace) *trace.Trace {
	out := trace.New(len(tr.Events))
	for _, e := range tr.Events {
		e.G, e.Peer = sparseGoID(e.G), sparseGoID(e.Peer)
		out.Append(e)
	}
	return out
}

// legacyClocks replays tr with GoID-keyed clocks under the hb edge rules
// of the given mode and returns each event's post-edge clock (nil for
// scheduling noise).
func legacyClocks(tr *trace.Trace, mode hb.Mode) []legacyVC {
	const (
		kindLock = iota + 1
		kindChan
		kindCond
		kindWg
	)
	clocks := map[trace.GoID]legacyVC{}
	clockOf := func(g trace.GoID) legacyVC {
		if c, ok := clocks[g]; ok {
			return c
		}
		c := legacyVC{}
		clocks[g] = c
		return c
	}
	kinds := map[trace.ResID]int{}
	mark := func(res trace.ResID, k int) {
		if res != 0 && kinds[res] == 0 {
			kinds[res] = k
		}
	}
	lockVC := map[trace.ResID]legacyVC{}
	closeVC := map[trace.ResID]legacyVC{}
	sendVC := map[trace.ResID][]legacyVC{}
	wgVC := map[trace.ResID]legacyVC{}
	recv := func(vc legacyVC, res trace.ResID) {
		if q := sendVC[res]; len(q) > 0 {
			vc.join(q[0])
			sendVC[res] = q[1:]
		}
	}
	accumulate := func(m map[trace.ResID]legacyVC, res trace.ResID, vc legacyVC) {
		if m[res] == nil {
			m[res] = legacyVC{}
		}
		m[res].join(vc)
	}

	out := make([]legacyVC, len(tr.Events))
	for i, e := range tr.Events {
		if e.Type == trace.EvGoSched || e.Type == trace.EvGoPreempt {
			continue
		}
		vc := clockOf(e.G)
		vc[e.G]++
		switch e.Type {
		case trace.EvGoCreate:
			child := vc.clone()
			child[e.Peer]++
			clocks[e.Peer] = child
		case trace.EvGoUnblock:
			if e.Peer != 0 && e.Peer != e.G && !(mode == hb.Must && kinds[e.Res] == kindLock) {
				clockOf(e.Peer).join(vc)
			}
		case trace.EvGoBlock:
			switch e.BlockReason() {
			case trace.BlockSend:
				mark(e.Res, kindChan)
				if e.Res != 0 {
					sendVC[e.Res] = append(sendVC[e.Res], vc.clone())
				}
			case trace.BlockRecv:
				mark(e.Res, kindChan)
			case trace.BlockMutex, trace.BlockRMutex:
				mark(e.Res, kindLock)
			case trace.BlockCond:
				mark(e.Res, kindCond)
			case trace.BlockWaitGroup:
				mark(e.Res, kindWg)
			}
		case trace.EvChanMake:
			mark(e.Res, kindChan)
		case trace.EvChanSend:
			mark(e.Res, kindChan)
			if !e.Blocked && e.Peer == 0 && e.Res != 0 {
				sendVC[e.Res] = append(sendVC[e.Res], vc.clone())
			}
		case trace.EvChanRecv:
			mark(e.Res, kindChan)
			if e.Res != 0 && !e.Blocked && e.Aux == 1 {
				recv(vc, e.Res)
			}
			if e.Res != 0 && e.Aux == 0 && closeVC[e.Res] != nil {
				vc.join(closeVC[e.Res])
			}
		case trace.EvSelectCase:
			mark(e.Res, kindChan)
			if e.Blocked || e.Res == 0 {
				break
			}
			if e.Str == "send" && e.Peer == 0 {
				sendVC[e.Res] = append(sendVC[e.Res], vc.clone())
			}
			if e.Str == "recv" {
				recv(vc, e.Res)
			}
		case trace.EvChanClose:
			mark(e.Res, kindChan)
			if e.Res != 0 {
				closeVC[e.Res] = vc.clone()
			}
		case trace.EvMutexUnlock, trace.EvRWUnlock, trace.EvRUnlock:
			mark(e.Res, kindLock)
			if mode == hb.Full && e.Res != 0 {
				accumulate(lockVC, e.Res, vc)
			}
		case trace.EvMutexLock, trace.EvRWLock, trace.EvRLock:
			mark(e.Res, kindLock)
			if mode == hb.Full && e.Res != 0 && lockVC[e.Res] != nil {
				vc.join(lockVC[e.Res])
			}
		case trace.EvWgAdd:
			mark(e.Res, kindWg)
			if e.Aux < 0 && e.Res != 0 {
				accumulate(wgVC, e.Res, vc)
			}
		case trace.EvWgWait:
			mark(e.Res, kindWg)
			if e.Res != 0 && wgVC[e.Res] != nil {
				vc.join(wgVC[e.Res])
			}
		case trace.EvCondWait, trace.EvCondSignal, trace.EvCondBroadcast:
			mark(e.Res, kindCond)
		}
		out[i] = vc.clone()
	}
	return out
}

// sparseFootprintDigest is the FNV-1a digest of every kernel's Full and
// Must footprints over the sparse relabeling (TestHBSparseGoIDs), as
// folded by the GoID-keyed map clocks the engine used before clocks
// became slot-indexed.
const sparseFootprintDigest = 0x35bc707cf1fb16cd

func TestHBSparseGoIDs(t *testing.T) {
	digest := fnv.New64a()
	for _, k := range All() {
		r := Run(k, sim.Options{Seed: 3, Delays: 2, MaxSteps: 50000})
		tr := sparseTrace(r.Trace)
		for _, mode := range []hb.Mode{hb.Full, hb.Must} {
			en := hb.NewEngine(mode)
			got := make([]hb.VC, len(tr.Events))
			i := 0
			en.Observer = func(_ trace.Event, vc hb.VC) { got[i] = vc.Clone() }
			for i = range tr.Events {
				en.Event(tr.Events[i])
			}
			want := legacyClocks(tr, mode)
			for a := range want {
				if (want[a] == nil) != (got[a] == nil) {
					t.Fatalf("%s mode %d: event %d clocked=%v, reference %v", k.ID, mode, a, got[a] != nil, want[a] != nil)
				}
				if want[a] == nil {
					continue
				}
				for b := range want {
					if want[b] == nil {
						continue
					}
					leq := want[a].leq(want[b])
					conc := !leq && !want[b].leq(want[a])
					if got[a].Leq(got[b]) != leq || got[a].Concurrent(got[b]) != conc {
						t.Fatalf("%s mode %d: events %d,%d: Leq/Concurrent %v/%v, GoID-keyed reference %v/%v",
							k.ID, mode, a, b, got[a].Leq(got[b]), got[a].Concurrent(got[b]), leq, conc)
					}
				}
			}
			fmt.Fprintf(digest, "%s/%d/%016x;", k.ID, mode, en.Footprint())
		}
	}
	if got := digest.Sum64(); got != sparseFootprintDigest {
		t.Errorf("sparse-ID footprint digest %#016x, want %#016x", got, uint64(sparseFootprintDigest))
	}
}
