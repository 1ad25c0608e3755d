package hb

import "testing"

// decodeVCs deterministically builds three clocks from fuzz input: each
// byte contributes one (slot, time) entry, cycling through the three
// clocks. Small universes force comparable, equal and concurrent pairs.
func decodeVCs(data []byte) [3]VC {
	var kv [3][]int64
	for i, b := range data {
		kv[i%3] = append(kv[i%3], int64(1+(b>>4)&0x3), int64(b&0xf))
	}
	return [3]VC{slots(kv[0]...), slots(kv[1]...), slots(kv[2]...)}
}

// FuzzVCLaws throws arbitrary clock triples at the lattice laws the
// engine's soundness rests on.
func FuzzVCLaws(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x11, 0x22, 0x33})
	f.Add([]byte{0x1f, 0x1f, 0x1f, 0x20, 0x31, 0x02})
	f.Add([]byte{0xff, 0x00, 0x7a, 0x15, 0x2c, 0x3e, 0x01, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		vcs := decodeVCs(data)
		a, b, c := vcs[0], vcs[1], vcs[2]

		// Clone independence.
		cl := a.Clone()
		cl.Join(slots(99, 1))
		if a.at(99) != 0 {
			t.Fatal("Clone aliases the receiver")
		}

		// Join: commutative, idempotent, associative, upper bound.
		ab := a.Clone()
		ab.Join(b)
		ba := b.Clone()
		ba.Join(a)
		if !vcEqual(ab, ba) {
			t.Fatalf("join not commutative: a=%v b=%v", a, b)
		}
		aa := a.Clone()
		aa.Join(a)
		if !vcEqual(aa, a) {
			t.Fatalf("join not idempotent: %v", a)
		}
		abc1 := ab.Clone()
		abc1.Join(c)
		bc := b.Clone()
		bc.Join(c)
		abc2 := a.Clone()
		abc2.Join(bc)
		if !vcEqual(abc1, abc2) {
			t.Fatalf("join not associative: a=%v b=%v c=%v", a, b, c)
		}
		if !a.Leq(ab) || !b.Leq(ab) {
			t.Fatalf("join not an upper bound: a=%v b=%v", a, b)
		}

		// Leq: reflexive, antisymmetric, transitive; Concurrent consistent.
		if !a.Leq(a) {
			t.Fatalf("Leq not reflexive: %v", a)
		}
		if a.Leq(b) && b.Leq(a) && !vcEqual(a, b) {
			t.Fatalf("Leq not antisymmetric: %v %v", a, b)
		}
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			t.Fatalf("Leq not transitive: %v %v %v", a, b, c)
		}
		if a.Concurrent(a) {
			t.Fatalf("self-concurrent: %v", a)
		}
		if a.Concurrent(b) != b.Concurrent(a) {
			t.Fatalf("Concurrent asymmetric: %v %v", a, b)
		}
		if a.Concurrent(b) && (a.Leq(b) || b.Leq(a)) {
			t.Fatalf("Concurrent contradicts Leq: %v %v", a, b)
		}
	})
}
