package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"goat/internal/trace"
)

func TestParseSyntheticWindow(t *testing.T) {
	r, err := Parse(bytes.NewReader(syntheticWindow()))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range r.Trace.Events {
		got = append(got, e.String())
	}
	want := []trace.Type{trace.EvGoStart, trace.EvGoBlock, trace.EvGoStart, trace.EvGoUnblock}
	if r.Trace.Len() != len(want) {
		t.Fatalf("converted %d events, want %d:\n%v", r.Trace.Len(), len(want), got)
	}
	for i, typ := range want {
		if r.Trace.Events[i].Type != typ {
			t.Fatalf("event %d is %s, want %s:\n%v", i, r.Trace.Events[i].Type, typ, got)
		}
	}
	if b := r.Trace.Events[1]; b.G != 1 || b.BlockReason() != trace.BlockSend {
		t.Errorf("park = %v, want g1 parked on chan-send", b)
	}
	if u := r.Trace.Events[3]; u.G != 2 || u.Peer != 1 {
		t.Errorf("wake = %v, want g2 waking g1", u)
	}
	if err := r.Trace.Validate(); err != nil {
		t.Error(err)
	}
}

// TestParseRejectsInvalidGoroutine: the runtime numbers goroutines from
// 1 and an ECT GoID is signed, so a capture naming goroutine 0 or one
// beyond the int64 range is corrupt.
func TestParseRejectsInvalidGoroutine(t *testing.T) {
	for _, g := range []uint64{0, 1 << 63} {
		data := newWireBuf().
			rec(wevFrequency, 15625000).
			rec(wevEventBatch, 1, 0, 100, 0).
			rec(wevGoStart, 1, g, 0).b
		if _, err := Parse(bytes.NewReader(data)); err == nil {
			t.Errorf("goroutine %d: Parse accepted the capture", g)
		}
	}
}

// TestResIDsIndependentOfUnionOrientation pins why the union-find may
// link either root under the other: ResIDs are handed out per class, in
// the order emission first uses one, never from the root's identity.
func TestResIDsIndependentOfUnionOrientation(t *testing.T) {
	sites := []siteKey{
		{famChan, "a.go", 1}, {famChan, "b.go", 2}, {famChan, "c.go", 3},
		{famLock, "d.go", 4}, {famLock, "e.go", 5},
	}
	edges := [][2]int{{0, 2}, {3, 4}, {2, 1}}
	uses := []int{1, 3, 0, 4, 2, 1}
	assign := func(flip bool) (ids []trace.ResID, root int32) {
		c := newConverter(&wireTrace{})
		keys := make([]int32, len(sites))
		for i, s := range sites {
			keys[i] = c.intern(s)
		}
		for _, e := range edges {
			a, b := keys[e[0]], keys[e[1]]
			if flip {
				a, b = b, a
			}
			c.union(a, b)
		}
		for _, u := range uses {
			ids = append(ids, c.resOf(keys[u]))
		}
		return ids, c.find(keys[0])
	}
	straight, r1 := assign(false)
	flipped, r2 := assign(true)
	if r1 == r2 {
		t.Fatal("both orientations chose the same root; the test proves nothing")
	}
	want := []trace.ResID{1, 2, 1, 2, 1, 1} // classes {a,b,c} and {d,e}, first used at b then d
	if !reflect.DeepEqual(straight, want) || !reflect.DeepEqual(flipped, want) {
		t.Errorf("ResIDs = %v (straight) / %v (flipped), want %v", straight, flipped, want)
	}
}

// TestResIDsInFirstUseOrder checks the same property on a real capture:
// scanning the ECT, each new ResID is exactly one more than the largest
// seen so far.
func TestResIDsInFirstUseOrder(t *testing.T) {
	r, err := Parse(bytes.NewReader(readFixture(t, smokeFixture)))
	if err != nil {
		t.Fatal(err)
	}
	var max trace.ResID
	for i, e := range r.Trace.Events {
		if e.Res > max+1 {
			t.Fatalf("event %d uses r%d before r%d was ever used", i, e.Res, max+1)
		}
		if e.Res > max {
			max = e.Res
		}
	}
	if max == 0 {
		t.Fatal("capture produced no resource identities")
	}
}
