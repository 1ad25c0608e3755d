package hb

import (
	"fmt"
	"reflect"
	"testing"

	"goat/internal/goker"
	"goat/internal/sim"
	"goat/internal/trace"
)

func traceOf(evs ...trace.Event) *trace.Trace {
	tr := trace.New(len(evs))
	for i, e := range evs {
		e.Ts = int64(i + 1)
		tr.Append(e)
	}
	return tr
}

func TestDependentBasics(t *testing.T) {
	cases := []struct {
		name string
		a, b trace.Event
		want bool
	}{
		{"same goroutine never dependent",
			trace.Event{G: 1, Type: trace.EvChanSend, Res: 5},
			trace.Event{G: 1, Type: trace.EvChanRecv, Res: 5}, false},
		{"same channel send/recv",
			trace.Event{G: 1, Type: trace.EvChanSend, Res: 5},
			trace.Event{G: 2, Type: trace.EvChanRecv, Res: 5}, true},
		{"different resources",
			trace.Event{G: 1, Type: trace.EvChanSend, Res: 5},
			trace.Event{G: 2, Type: trace.EvChanRecv, Res: 6}, false},
		{"lock/lock same mutex",
			trace.Event{G: 1, Type: trace.EvMutexLock, Res: 3},
			trace.Event{G: 2, Type: trace.EvMutexLock, Res: 3}, true},
		{"read-lock pair commutes",
			trace.Event{G: 1, Type: trace.EvRLock, Res: 3},
			trace.Event{G: 2, Type: trace.EvRLock, Res: 3}, false},
		{"read/write var conflict",
			trace.Event{G: 1, Type: trace.EvVarRead, Res: 9},
			trace.Event{G: 2, Type: trace.EvVarWrite, Res: 9}, true},
		{"read/read var commutes",
			trace.Event{G: 1, Type: trace.EvVarRead, Res: 9},
			trace.Event{G: 2, Type: trace.EvVarRead, Res: 9}, false},
		{"create targets child",
			trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 2},
			trace.Event{G: 2, Type: trace.EvChanSend, Res: 5}, true},
		{"unblock targets sleeper",
			trace.Event{G: 1, Type: trace.EvGoUnblock, Peer: 2, Res: 5},
			trace.Event{G: 2, Type: trace.EvChanRecv, Res: 7}, true},
		{"scheduling noise inert",
			trace.Event{G: 1, Type: trace.EvGoSched},
			trace.Event{G: 2, Type: trace.EvGoSched}, false},
	}
	for _, c := range cases {
		if got := Dependent(c.a, c.b); got != c.want {
			t.Errorf("%s: Dependent = %v, want %v", c.name, got, c.want)
		}
		if Dependent(c.a, c.b) != Dependent(c.b, c.a) {
			t.Errorf("%s: Dependent not symmetric", c.name)
		}
	}
}

func TestEnabledAtTimeline(t *testing.T) {
	tr := traceOf(
		trace.Event{G: 1, Type: trace.EvGoStart},                                      // 0
		trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 2},                            // 1
		trace.Event{G: 1, Type: trace.EvGoBlock, Res: 4, Aux: int64(trace.BlockRecv)}, // 2
		trace.Event{G: 2, Type: trace.EvGoStart},                                      // 3
		trace.Event{G: 2, Type: trace.EvGoUnblock, Peer: 1, Res: 4},                   // 4
		trace.Event{G: 2, Type: trace.EvGoEnd},                                        // 5
		trace.Event{G: 1, Type: trace.EvGoEnd},                                        // 6
	)
	d := BuildDeps(tr, Must)
	checks := []struct {
		i    int
		g    trace.GoID
		want bool
	}{
		{0, 1, false}, // before its own start event nothing is known
		{1, 1, true},
		{1, 2, false}, // not yet created
		{2, 2, true},  // created at event 1
		{3, 1, true},  // blocks only after event 2 executes... see below
		{4, 1, false}, // blocked during g2's run
		{5, 1, true},  // unblocked by event 4
		{6, 2, false}, // g2 ended at event 5
	}
	// Event 2 is g1's own block: at the state *before* event 3, g1 is
	// blocked (the block executed at index 2 < 3).
	checks[4].want = false
	for _, c := range checks {
		if got := d.EnabledAt(c.i, c.g); got != c.want {
			t.Errorf("EnabledAt(%d, g%d) = %v, want %v", c.i, c.g, got, c.want)
		}
	}
}

func TestRacingPairsConcurrentSends(t *testing.T) {
	// g1 creates g2 and g3; both send on channel 7 with no ordering
	// between them: the send pair is dependent, Must-concurrent, racing.
	tr := traceOf(
		trace.Event{G: 1, Type: trace.EvGoStart},
		trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 2},
		trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 3},
		trace.Event{G: 2, Type: trace.EvGoStart},
		trace.Event{G: 2, Type: trace.EvChanSend, Res: 7}, // 4
		trace.Event{G: 3, Type: trace.EvGoStart},
		trace.Event{G: 3, Type: trace.EvChanSend, Res: 7}, // 6
	)
	d := BuildDeps(tr, Must)
	if !d.Racing(4, 6) {
		t.Fatalf("concurrent same-channel sends not racing")
	}
	if !d.CoEnabled(4, 6) {
		t.Fatalf("concurrent sends not co-enabled (g3 created at event 2)")
	}
	pairs := d.RacingPairs()
	found := false
	for _, p := range pairs {
		if p == [2]int{4, 6} {
			found = true
		}
		if !d.Racing(p[0], p[1]) {
			t.Fatalf("RacingPairs returned non-racing pair %v", p)
		}
	}
	if !found {
		t.Fatalf("RacingPairs missed the send pair: %v", pairs)
	}
	// The creates are HB-ordered before the children's sends: not racing.
	if d.Racing(1, 4) || d.Racing(2, 6) {
		t.Fatalf("create/child pairs reported racing despite HB order")
	}
}

// racingPairsScan is the reference for RacingPairs: every pair of
// clocked events tested in trace order, quadratic in the trace length.
func racingPairsScan(d *Deps) [][2]int {
	var out [][2]int
	for i := 0; i < len(d.Events); i++ {
		if d.Clocks[i] == nil {
			continue
		}
		for j := i + 1; j < len(d.Events); j++ {
			if d.Clocks[j] == nil {
				continue
			}
			if d.Racing(i, j) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// checkPairsMatchScan fails unless RacingPairs returns exactly the scan's
// pairs, in the same order.
func checkPairsMatchScan(t *testing.T, name string, d *Deps) {
	t.Helper()
	got, want := d.RacingPairs(), racingPairsScan(d)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RacingPairs returned %d pairs, the scan %d\n  got  %v\n  want %v",
			name, len(got), len(want), got, want)
	}
}

// TestRacingPairsMatchScan runs every kernel over the footprint golden's
// grid (seeds 1-4, four yield placements, the DPOR explorer's options),
// plus kubernetes_11298 under the placements that stretch its schedule
// past 540 events, and requires the indexed candidates to reproduce the
// scan exactly in both modes.
func TestRacingPairsMatchScan(t *testing.T) {
	check := func(k goker.Kernel, seed int64, y []int64) {
		opts := sim.Options{Seed: seed, Pick: sim.PickFIFO, PreemptProb: -1,
			YieldAt: append([]int64{}, y...), RecordOps: true}
		tr := sim.Run(opts, k.Main).Trace
		for _, mode := range []Mode{Full, Must} {
			checkPairsMatchScan(t, fmt.Sprintf("%s s%d y%v mode %d", k.ID, seed, y, mode), BuildDeps(tr, mode))
		}
	}
	for _, k := range goker.All() {
		for seed := int64(1); seed <= 4; seed++ {
			for _, y := range [][]int64{nil, {2}, {3, 7}, {1, 4, 9}} {
				check(k, seed, y)
			}
		}
	}
	k, _ := goker.ByID("kubernetes_11298")
	for seed := int64(1); seed <= 4; seed++ {
		for _, y := range [][]int64{{1, 4}, {2, 5}, {4, 5}} {
			check(k, seed, y)
		}
	}
}

// genEvents decodes fuzz bytes into a synthetic event soup over 4
// goroutines and 3 resources. The sequence need not be an execution the
// scheduler could produce — every property below must hold for arbitrary
// event sequences, because BuildDeps is defined on traces, not programs.
// EvGoCreate is excluded: replaying a create for an already-active
// goroutine resets its clock, which is a trace no scheduler emits.
func genEvents(data []byte) []trace.Event {
	var evs []trace.Event
	for len(data) >= 3 {
		op, gb, rb := data[0], data[1], data[2]
		data = data[3:]
		g := trace.GoID(gb%4 + 1)
		res := trace.ResID(rb%3 + 1)
		peer := trace.GoID(rb%4 + 1)
		var e trace.Event
		switch op % 14 {
		case 0:
			e = trace.Event{G: g, Type: trace.EvChanSend, Res: res}
		case 1:
			e = trace.Event{G: g, Type: trace.EvChanRecv, Res: res, Aux: 1}
		case 2:
			e = trace.Event{G: g, Type: trace.EvChanClose, Res: res}
		case 3:
			e = trace.Event{G: g, Type: trace.EvMutexLock, Res: res}
		case 4:
			e = trace.Event{G: g, Type: trace.EvMutexUnlock, Res: res}
		case 5:
			e = trace.Event{G: g, Type: trace.EvRLock, Res: res}
		case 6:
			e = trace.Event{G: g, Type: trace.EvRUnlock, Res: res}
		case 7:
			e = trace.Event{G: g, Type: trace.EvWgAdd, Res: res, Aux: -1}
		case 8:
			e = trace.Event{G: g, Type: trace.EvWgWait, Res: res}
		case 9:
			e = trace.Event{G: g, Type: trace.EvVarRead, Res: res}
		case 10:
			e = trace.Event{G: g, Type: trace.EvVarWrite, Res: res}
		case 11:
			e = trace.Event{G: g, Type: trace.EvGoBlock, Res: res, Aux: int64(trace.BlockRecv)}
		case 12:
			e = trace.Event{G: g, Type: trace.EvGoUnblock, Peer: peer, Res: res}
		default:
			e = trace.Event{G: g, Type: trace.EvGoSched}
		}
		evs = append(evs, e)
	}
	return evs
}

// pairKey canonicalizes a racing pair for cross-permutation comparison:
// the two events' identities (not their indices), order-normalized.
func pairKey(a, b trace.Event) string {
	a.Ts, b.Ts = 0, 0
	ka, kb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b)
	if kb < ka {
		ka, kb = kb, ka
	}
	return ka + "|" + kb
}

func racingMultiset(d *Deps) map[string]int {
	out := map[string]int{}
	for _, p := range d.RacingPairs() {
		out[pairKey(d.Events[p[0]], d.Events[p[1]])]++
	}
	return out
}

func FuzzDPORDependence(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0})                     // two sends, same chan
	f.Add([]byte{3, 0, 1, 3, 1, 1, 4, 0, 1, 4, 1, 1})   // lock/lock then unlocks
	f.Add([]byte{9, 0, 2, 10, 1, 2, 9, 2, 2})           // read/write/read var
	f.Add([]byte{11, 0, 0, 12, 1, 0, 0, 0, 0, 1, 1, 0}) // block, wake, send, recv
	f.Add([]byte{7, 0, 1, 8, 1, 1, 13, 2, 0, 5, 3, 1})  // wg add/wait, sched, rlock
	f.Add([]byte{2, 0, 0, 1, 1, 0, 1, 2, 0, 0, 3, 0})   // close then receives

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*64 {
			data = data[:3*64] // quadratic properties below; bound the soup
		}
		evs := genEvents(data)
		tr := traceOf(evs...)

		must := BuildDeps(tr, Must)
		full := BuildDeps(tr, Full)

		// The indexed candidates are exactly the quadratic scan's.
		checkPairsMatchScan(t, "must", must)
		checkPairsMatchScan(t, "full", full)

		// The arena-backed per-event clocks are the clocks the engine
		// reports as it streams (these soups have no creates, so the
		// arena's first block is one entry per event and overflows).
		en := NewEngine(Must)
		var streamed VC
		en.Observer = func(_ trace.Event, vc VC) { streamed = vc.Clone() }
		for i, e := range evs {
			streamed = nil
			en.Event(e)
			if (streamed == nil) != (must.Clocks[i] == nil) ||
				streamed != nil && !vcEqual(streamed, must.Clocks[i]) {
				t.Fatalf("event %d: BuildDeps clock %v, streamed %v", i, must.Clocks[i], streamed)
			}
		}

		// Dependence is symmetric, mode-independent, and never intra-G.
		for i := range evs {
			for j := range evs {
				if Dependent(evs[i], evs[j]) != Dependent(evs[j], evs[i]) {
					t.Fatalf("Dependent(%d,%d) asymmetric", i, j)
				}
				if evs[i].G == evs[j].G && Dependent(evs[i], evs[j]) {
					t.Fatalf("intra-goroutine pair (%d,%d) dependent", i, j)
				}
			}
		}

		// Full adds edges over Must, so Full orders at least as much:
		// every Full-racing pair must also race under Must. (This is the
		// soundness direction: DPOR driven by Must-mode clocks never sees
		// fewer candidate reversals than a Full-mode analysis would.)
		for _, p := range full.RacingPairs() {
			if !must.Racing(p[0], p[1]) {
				t.Fatalf("pair %v races in Full but not Must", p)
			}
		}

		// Per-goroutine clock monotonicity: a goroutine's clock only grows
		// along its own event sequence.
		last := map[trace.GoID]VC{}
		for i, e := range evs {
			c := must.Clocks[i]
			if c == nil {
				continue
			}
			if prev, ok := last[e.G]; ok && !prev.Leq(c) {
				t.Fatalf("clock of g%d regressed at event %d", e.G, i)
			}
			last[e.G] = c
		}

		// Determinism: rebuilding yields identical footprint and pairs.
		again := BuildDeps(tr, Must)
		if again.Footprint != must.Footprint {
			t.Fatalf("footprint not deterministic: %x vs %x", again.Footprint, must.Footprint)
		}

		// Persistence under reordering: swapping two adjacent independent
		// events (different goroutines, not Dependent) is an equivalent
		// linearization of the same partial order — the racing-pair
		// multiset and the footprint must not change. This is the
		// invariant that makes backtrack sets meaningful: they identify
		// event pairs, not trace positions.
		for i := 0; i+1 < len(evs); i++ {
			a, b := evs[i], evs[i+1]
			if a.G == b.G || Dependent(a, b) {
				continue
			}
			swapped := make([]trace.Event, len(evs))
			copy(swapped, evs)
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			sd := BuildDeps(traceOf(swapped...), Must)
			if sd.Footprint != must.Footprint {
				t.Fatalf("swap at %d changed footprint: %x vs %x", i, sd.Footprint, must.Footprint)
			}
			wantPairs, gotPairs := racingMultiset(must), racingMultiset(sd)
			if len(wantPairs) != len(gotPairs) {
				t.Fatalf("swap at %d changed racing pairs: %d vs %d keys", i, len(wantPairs), len(gotPairs))
			}
			for k, n := range wantPairs {
				if gotPairs[k] != n {
					t.Fatalf("swap at %d changed racing multiplicity of %s: %d vs %d", i, k, n, gotPairs[k])
				}
			}
			break // one swap per input keeps the fuzz round fast
		}

		// EnabledAt is consistent with block/unblock structure: a
		// goroutine is never enabled immediately after its own block.
		for i, e := range evs {
			if e.Type == trace.EvGoBlock && i+1 < len(evs) {
				if must.EnabledAt(i+1, e.G) {
					t.Fatalf("g%d enabled right after its own block at %d", e.G, i)
				}
			}
		}
	})
}
