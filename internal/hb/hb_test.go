package hb

import (
	"math/rand"
	"testing"

	"goat/internal/trace"
)

// slots builds a clock from (slot, time) pairs; slots not named read 0.
// Clocks are slot-indexed, so tests spell out slots, never GoIDs.
func slots(kv ...int64) VC {
	var v VC
	for i := 0; i+1 < len(kv); i += 2 {
		v = grown(v, int(kv[i])+1)
		v[kv[i]] = kv[i+1]
	}
	return v
}

// randVC draws a random clock over a small slot universe so that
// comparable and incomparable pairs both occur often.
func randVC(rng *rand.Rand) VC {
	var kv []int64
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		kv = append(kv, int64(1+rng.Intn(4)), int64(rng.Intn(6)))
	}
	return slots(kv...)
}

func vcEqual(a, b VC) bool { return a.Leq(b) && b.Leq(a) }

// TestVCLaws checks the algebraic laws of the vector-clock lattice on a
// seeded random sample: join is commutative, idempotent and monotone,
// and Leq is a partial order.
func TestVCLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := randVC(rng), randVC(rng), randVC(rng)

		// Commutativity: a⊔b == b⊔a.
		ab := a.Clone()
		ab.Join(b)
		ba := b.Clone()
		ba.Join(a)
		if !vcEqual(ab, ba) {
			t.Fatalf("join not commutative: %v vs %v (a=%v b=%v)", ab, ba, a, b)
		}

		// Idempotence: a⊔a == a.
		aa := a.Clone()
		aa.Join(a)
		if !vcEqual(aa, a) {
			t.Fatalf("join not idempotent: %v != %v", aa, a)
		}

		// The join is an upper bound and monotone: a ≤ a⊔b, b ≤ a⊔b.
		if !a.Leq(ab) || !b.Leq(ab) {
			t.Fatalf("join not an upper bound: a=%v b=%v a⊔b=%v", a, b, ab)
		}

		// Associativity: (a⊔b)⊔c == a⊔(b⊔c).
		abc1 := ab.Clone()
		abc1.Join(c)
		bc := b.Clone()
		bc.Join(c)
		abc2 := a.Clone()
		abc2.Join(bc)
		if !vcEqual(abc1, abc2) {
			t.Fatalf("join not associative: %v vs %v", abc1, abc2)
		}

		// Leq is reflexive.
		if !a.Leq(a) {
			t.Fatalf("Leq not reflexive on %v", a)
		}
		// Antisymmetric: mutual Leq means equality.
		if a.Leq(b) && b.Leq(a) && !vcEqual(a, b) {
			t.Fatalf("Leq not antisymmetric: %v vs %v", a, b)
		}
		// Transitive.
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			t.Fatalf("Leq not transitive: %v ≤ %v ≤ %v", a, b, c)
		}
		// Concurrent is irreflexive and symmetric.
		if a.Concurrent(a) {
			t.Fatalf("clock concurrent with itself: %v", a)
		}
		if a.Concurrent(b) != b.Concurrent(a) {
			t.Fatalf("Concurrent not symmetric: %v vs %v", a, b)
		}
	}
}

func TestCloneNeverAliases(t *testing.T) {
	a := slots(1, 3, 2, 5)
	b := a.Clone()
	b[1] = 99
	b.Join(slots(7, 1))
	if a[1] != 3 {
		t.Fatalf("clone aliased the original: %v", a)
	}
	if a.at(7) != 0 {
		t.Fatalf("clone write leaked into original: %v", a)
	}
	a.Join(slots(9, 9))
	if b.at(9) != 0 {
		t.Fatalf("original join leaked into clone: %v", b)
	}
}

// TestVCPastEndReadsZero pins the dense representation's contract:
// clocks of different lengths compare as if padded with zeros.
func TestVCPastEndReadsZero(t *testing.T) {
	short, long := slots(0, 2), slots(0, 2, 3, 0)
	if !short.Leq(long) || !long.Leq(short) || short.Concurrent(long) {
		t.Fatalf("trailing zeros changed the order: %v vs %v", short, long)
	}
	if !short.Leq(slots(0, 2, 3, 1)) || slots(0, 2, 3, 1).Leq(short) {
		t.Fatal("a longer clock with a non-zero tail must be strictly above")
	}
}

// ev is a shorthand event constructor for engine unit tests.
func ev(g trace.GoID, t trace.Type, res trace.ResID) trace.Event {
	return trace.Event{G: g, Type: t, Res: res}
}

func TestEngineProgramOrder(t *testing.T) {
	en := NewEngine(Full)
	en.Event(ev(1, trace.EvChanMake, 1))
	en.Event(ev(1, trace.EvUserLog, 0))
	if got := en.ClockOf(1)[en.slot(1)]; got != 2 {
		t.Fatalf("program order: clock[1] = %d, want 2", got)
	}
	if en.Events() != 2 {
		t.Fatalf("events = %d, want 2", en.Events())
	}
}

func TestEngineGoCreateEdge(t *testing.T) {
	en := NewEngine(Full)
	en.Event(ev(1, trace.EvUserLog, 0))
	en.Event(trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 2})
	parent := en.ClockOf(1).Clone()
	child := en.ClockOf(2)
	if !parent.Leq(child) {
		t.Fatalf("parent clock %v not ≤ child clock %v", parent, child)
	}
	if child.at(en.slot(2)) == 0 {
		t.Fatalf("child did not get its own component: %v", child)
	}
}

// TestEngineSelfCreate pins a malformed trace's create aimed at its own
// creator: the child clock is a copy of the creator's, so the creator's
// own entry advances twice per event (tick, then the child increment).
func TestEngineSelfCreate(t *testing.T) {
	en := NewEngine(Full)
	en.Event(trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 1})
	en.Event(trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 1})
	if got := en.ClockOf(1)[en.slot(1)]; got != 4 {
		t.Fatalf("self-create: own entry %d, want 4", got)
	}
}

func TestEngineUnblockEdge(t *testing.T) {
	en := NewEngine(Full)
	en.Event(ev(1, trace.EvUserLog, 0))
	en.Event(ev(2, trace.EvUserLog, 0))
	before := en.ClockOf(1).Clone()
	en.Event(trace.Event{G: 1, Type: trace.EvGoUnblock, Peer: 2, Res: 7})
	if !before.Leq(en.ClockOf(2)) {
		t.Fatalf("unblock edge missing: waker %v, woken %v", before, en.ClockOf(2))
	}
}

func TestEngineBufferedChannelFIFO(t *testing.T) {
	en := NewEngine(Full)
	// g1 performs two buffered sends; g2 receives twice in place.
	en.Event(trace.Event{G: 1, Type: trace.EvChanSend, Res: 3})
	afterFirstSend := en.ClockOf(1).Clone()
	en.Event(trace.Event{G: 1, Type: trace.EvChanSend, Res: 3})
	en.Event(trace.Event{G: 2, Type: trace.EvChanRecv, Res: 3, Aux: 1})
	if !afterFirstSend.Leq(en.ClockOf(2)) {
		t.Fatalf("first send %v not ≤ first recv %v", afterFirstSend, en.ClockOf(2))
	}
	full := en.ClockOf(1).Clone()
	en.Event(trace.Event{G: 2, Type: trace.EvChanRecv, Res: 3, Aux: 1})
	if !full.Leq(en.ClockOf(2)) {
		t.Fatalf("second send %v not ≤ second recv %v", full, en.ClockOf(2))
	}
}

func TestEngineCloseEdge(t *testing.T) {
	en := NewEngine(Full)
	en.Event(ev(1, trace.EvUserLog, 0))
	en.Event(trace.Event{G: 1, Type: trace.EvChanClose, Res: 3})
	closer := en.ClockOf(1).Clone()
	// Aux=0 receive observed the close.
	en.Event(trace.Event{G: 2, Type: trace.EvChanRecv, Res: 3, Aux: 0})
	if !closer.Leq(en.ClockOf(2)) {
		t.Fatalf("close %v not ≤ close-observing recv %v", closer, en.ClockOf(2))
	}
}

func TestEngineLockEdgeFullVsMust(t *testing.T) {
	feed := func(en *Engine) {
		en.Event(ev(1, trace.EvMutexLock, 5))
		en.Event(ev(1, trace.EvMutexUnlock, 5))
		en.Event(ev(2, trace.EvMutexLock, 5))
	}
	full := NewEngine(Full)
	feed(full)
	if !full.ClockOf(1).Leq(full.ClockOf(2).Clone()) {
		// g2's own tick makes its clock strictly above g1's joined clock.
		t.Fatalf("Full mode: release %v not ≤ acquire %v", full.ClockOf(1), full.ClockOf(2))
	}
	must := NewEngine(Must)
	feed(must)
	if !must.ClockOf(1).Concurrent(must.ClockOf(2)) {
		t.Fatalf("Must mode: lock-ordered clocks not concurrent: %v vs %v",
			must.ClockOf(1), must.ClockOf(2))
	}
}

func TestEngineMustDropsLockUnblock(t *testing.T) {
	feed := func(en *Engine) {
		// Res 5 is revealed as a lock by the block reason, then the unlock
		// hands it off via GoUnblock.
		en.Event(trace.Event{G: 2, Type: trace.EvGoBlock, Res: 5, Aux: int64(trace.BlockMutex)})
		en.Event(trace.Event{G: 1, Type: trace.EvGoUnblock, Res: 5, Peer: 2})
	}
	full := NewEngine(Full)
	feed(full)
	if full.ClockOf(1).Concurrent(full.ClockOf(2)) {
		t.Fatal("Full mode must keep the lock handoff edge")
	}
	must := NewEngine(Must)
	feed(must)
	if !must.ClockOf(1).Concurrent(must.ClockOf(2)) {
		t.Fatal("Must mode must drop the lock handoff edge")
	}
}

func TestEngineWaitGroupEdge(t *testing.T) {
	en := NewEngine(Full)
	en.Event(ev(1, trace.EvUserLog, 0))
	en.Event(trace.Event{G: 1, Type: trace.EvWgAdd, Res: 4, Aux: -1})
	done := en.ClockOf(1).Clone()
	en.Event(trace.Event{G: 2, Type: trace.EvWgWait, Res: 4})
	if !done.Leq(en.ClockOf(2)) {
		t.Fatalf("Done %v not ≤ Wait %v", done, en.ClockOf(2))
	}
}

func TestSchedulingNoiseInvisible(t *testing.T) {
	base := []trace.Event{
		ev(1, trace.EvChanMake, 1),
		{G: 1, Type: trace.EvGoCreate, Peer: 2},
		{G: 2, Type: trace.EvChanSend, Res: 1},
		{G: 1, Type: trace.EvChanRecv, Res: 1, Aux: 1},
	}
	noisy := []trace.Event{
		base[0],
		{G: 1, Type: trace.EvGoSched},
		base[1],
		{G: 2, Type: trace.EvGoPreempt},
		base[2],
		{G: 1, Type: trace.EvGoSched},
		base[3],
	}
	a, b := NewEngine(Full), NewEngine(Full)
	for _, e := range base {
		a.Event(e)
	}
	for _, e := range noisy {
		b.Event(e)
	}
	if !a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("yield/preempt events changed the HB graph")
	}
}

func TestFootprintOrderIndependent(t *testing.T) {
	// Two goroutines with no cross edges: any interleaving is
	// HB-equivalent and must fold to the same footprint.
	seq1 := []trace.Event{
		ev(1, trace.EvMutexLock, 1),
		ev(1, trace.EvMutexUnlock, 1),
		ev(2, trace.EvChanMake, 2),
		ev(2, trace.EvChanSend, 2),
	}
	seq2 := []trace.Event{seq1[2], seq1[0], seq1[3], seq1[1]}
	a, b := NewEngine(Must), NewEngine(Must)
	for _, e := range seq1 {
		a.Event(e)
	}
	for _, e := range seq2 {
		b.Event(e)
	}
	if a.Footprint() != b.Footprint() {
		t.Fatalf("interleaving changed footprint: %x vs %x", a.Footprint(), b.Footprint())
	}
	// A genuinely different event mix must (overwhelmingly) differ.
	c := NewEngine(Must)
	for _, e := range seq1[:3] {
		c.Event(e)
	}
	if a.Footprint() == c.Footprint() {
		t.Fatal("different event sets collided (hash degenerate)")
	}
}

func TestEngineResetAndReuse(t *testing.T) {
	en := NewEngine(Full)
	var observed int
	en.Observer = func(trace.Event, VC) { observed++ }
	en.Event(ev(1, trace.EvChanMake, 1))
	first := en.Snapshot()
	en.Reset()
	if en.Events() != 0 || en.Footprint() != 0 {
		t.Fatal("Reset left state behind")
	}
	en.Event(ev(1, trace.EvChanMake, 1))
	if !en.Snapshot().Equal(first) {
		t.Fatal("reused engine diverged from fresh run")
	}
	if observed != 2 {
		t.Fatalf("observer calls = %d, want 2 (kept across Reset)", observed)
	}
}

func TestFromTraceMatchesStreaming(t *testing.T) {
	tr := trace.New(0)
	events := []trace.Event{
		ev(1, trace.EvChanMake, 1),
		{G: 1, Type: trace.EvGoCreate, Peer: 2},
		{G: 2, Type: trace.EvChanSend, Res: 1},
		{G: 1, Type: trace.EvChanRecv, Res: 1, Aux: 1},
	}
	en := NewEngine(Full)
	for _, e := range events {
		tr.Event(e)
		en.Event(e)
	}
	if !en.Snapshot().Equal(FromTrace(tr, Full)) {
		t.Fatal("FromTrace disagrees with the streaming engine")
	}
	if FromTrace(nil, Full).Events != 0 {
		t.Fatal("FromTrace(nil) must be empty")
	}
}

func TestGraphGoroutinesSorted(t *testing.T) {
	en := NewEngine(Full)
	en.Event(ev(3, trace.EvUserLog, 0))
	en.Event(ev(1, trace.EvUserLog, 0))
	en.Event(ev(2, trace.EvUserLog, 0))
	gs := en.Snapshot().Goroutines()
	if len(gs) != 3 || gs[0] != 1 || gs[1] != 2 || gs[2] != 3 {
		t.Fatalf("Goroutines() = %v, want [1 2 3]", gs)
	}
}
