package trace

import (
	"reflect"
	"testing"
)

func ev(ts int64) Event {
	return Event{Ts: ts, G: 1, Type: EvGoSched}
}

func TestTraceIsASink(t *testing.T) {
	var _ Sink = New(0)
	tr := New(0)
	tr.Event(ev(1))
	tr.Event(ev(2))
	tr.Close()
	if tr.Len() != 2 || tr.Events[1].Ts != 2 {
		t.Fatalf("trace sink recorded %v", tr.Events)
	}
	tr.Reset()
	if tr.Len() != 0 || cap(tr.Events) < 2 {
		t.Fatalf("Reset must truncate in place (len %d, cap %d)", tr.Len(), cap(tr.Events))
	}
}

type recordingSink struct {
	events []Event
	closed int
}

func (s *recordingSink) Event(e Event) { s.events = append(s.events, e) }
func (s *recordingSink) Close()        { s.closed++ }

func TestMultiSinkFansOut(t *testing.T) {
	a, b := &recordingSink{}, &recordingSink{}
	m := NewMultiSink(a, b)
	m.Event(ev(1))
	m.Event(ev(2))
	m.Close()
	for i, s := range []*recordingSink{a, b} {
		if len(s.events) != 2 || s.closed != 1 {
			t.Fatalf("member %d: %d event(s), %d close(s)", i, len(s.events), s.closed)
		}
	}
}

func TestRingSinkPartialFill(t *testing.T) {
	r := NewRingSink(4)
	r.Event(ev(1))
	r.Event(ev(2))
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("len %d dropped %d", r.Len(), r.Dropped())
	}
	snap := r.Snapshot()
	if want := []Event{ev(1), ev(2)}; !reflect.DeepEqual(snap.Events, want) {
		t.Fatalf("snapshot %v, want %v", snap.Events, want)
	}
}

func TestRingSinkWrapsAndKeepsNewest(t *testing.T) {
	r := NewRingSink(4)
	for ts := int64(1); ts <= 10; ts++ {
		r.Event(ev(ts))
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", r.Dropped())
	}
	snap := r.Snapshot()
	want := []Event{ev(7), ev(8), ev(9), ev(10)}
	if !reflect.DeepEqual(snap.Events, want) {
		t.Fatalf("snapshot %v, want %v", snap.Events, want)
	}
	// The snapshot is a copy: the recorder keeps running.
	r.Event(ev(11))
	if snap.Len() != 4 || r.Snapshot().Events[3] != ev(11) {
		t.Fatal("snapshot aliased the live ring")
	}
}

func TestRingSinkMinimumCapacity(t *testing.T) {
	r := NewRingSink(0)
	r.Event(ev(1))
	r.Event(ev(2))
	if r.Len() != 1 || r.Snapshot().Events[0] != ev(2) {
		t.Fatalf("ring of capacity 1: %v", r.Snapshot().Events)
	}
}

// TestRingSinkSnapshotChronological pins the wrap-around ordering at
// every fill level: whatever the write cursor's position, Snapshot must
// return the retained window oldest-first with strictly ascending
// timestamps.
func TestRingSinkSnapshotChronological(t *testing.T) {
	for total := int64(1); total <= 13; total++ {
		r := NewRingSink(5)
		for ts := int64(1); ts <= total; ts++ {
			r.Event(ev(ts))
		}
		snap := r.Snapshot()
		want := total - 4 // oldest retained timestamp
		if want < 1 {
			want = 1
		}
		for i, e := range snap.Events {
			if e.Ts != want+int64(i) {
				t.Fatalf("after %d events: snapshot[%d].Ts = %d, want %d (full window: %v)",
					total, i, e.Ts, want+int64(i), snap.Events)
			}
		}
	}
}

func TestRingSinkReset(t *testing.T) {
	r := NewRingSink(3)
	for ts := int64(1); ts <= 7; ts++ {
		r.Event(ev(ts))
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("after Reset: len %d dropped %d", r.Len(), r.Dropped())
	}
	r.Event(ev(8))
	snap := r.Snapshot()
	if snap.Len() != 1 || snap.Events[0] != ev(8) {
		t.Fatalf("ring after Reset: %v", snap.Events)
	}
}
