package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := New(8)
	t.Append(Event{Ts: 1, G: 1, Type: EvGoStart})
	t.Append(Event{Ts: 2, G: 1, Type: EvChanMake, Res: 1, Aux: 0, File: "main.go", Line: 10})
	t.Append(Event{Ts: 3, G: 1, Type: EvGoCreate, Peer: 2, File: "main.go", Line: 12, Str: "worker"})
	t.Append(Event{Ts: 4, G: 2, Type: EvGoStart})
	t.Append(Event{Ts: 5, G: 2, Type: EvChanSend, Res: 1, Blocked: true, Peer: 1, File: "main.go", Line: 20})
	t.Append(Event{Ts: 6, G: 1, Type: EvChanRecv, Res: 1, File: "main.go", Line: 13})
	t.Append(Event{Ts: 7, G: 2, Type: EvGoEnd})
	t.Append(Event{Ts: 8, G: 1, Type: EvGoEnd})
	return t
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejectsNonMonotonicTs(t *testing.T) {
	tr := sampleTrace()
	tr.Events[3].Ts = 2
	if err := tr.Validate(); err == nil {
		t.Fatal("non-monotonic timestamps accepted")
	}
}

func TestValidateRejectsUncreatedGoroutine(t *testing.T) {
	tr := New(1)
	tr.Append(Event{Ts: 1, G: 5, Type: EvGoStart})
	if err := tr.Validate(); err == nil {
		t.Fatal("event by uncreated goroutine accepted")
	}
}

func TestValidateRejectsDoubleCreate(t *testing.T) {
	tr := New(2)
	tr.Append(Event{Ts: 1, G: 1, Type: EvGoCreate, Peer: 2})
	tr.Append(Event{Ts: 2, G: 1, Type: EvGoCreate, Peer: 2})
	if err := tr.Validate(); err == nil {
		t.Fatal("double creation accepted")
	}
}

func TestValidateRejectsInvalidType(t *testing.T) {
	tr := New(1)
	tr.Append(Event{Ts: 1, G: 1, Type: evMax})
	if err := tr.Validate(); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestGoroutines(t *testing.T) {
	got := sampleTrace().Goroutines()
	want := []GoID{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Goroutines() = %v, want %v", got, want)
	}
}

func TestByGoroutinePreservesOrder(t *testing.T) {
	m := sampleTrace().ByGoroutine()
	if len(m[1]) != 5 || len(m[2]) != 3 {
		t.Fatalf("projection sizes = %d,%d, want 5,3", len(m[1]), len(m[2]))
	}
	var last int64
	for _, e := range m[1] {
		if e.Ts <= last {
			t.Fatalf("projection order violated at ts %d", e.Ts)
		}
		last = e.Ts
	}
}

func TestFilterAndSlice(t *testing.T) {
	tr := sampleTrace()
	chans := tr.Filter(func(e Event) bool { return CategoryOf(e.Type) == CatChannel })
	if chans.Len() != 3 {
		t.Fatalf("channel events = %d, want 3", chans.Len())
	}
}

func TestCountByType(t *testing.T) {
	m := sampleTrace().CountByType()
	if m[EvGoEnd] != 2 || m[EvChanSend] != 1 {
		t.Fatalf("CountByType = %v", m)
	}
}

func TestUnblocking(t *testing.T) {
	e := Event{Type: EvChanSend, Peer: 7}
	if !e.Unblocking() {
		t.Fatal("send with peer should be unblocking")
	}
	e = Event{Type: EvGoCreate, Peer: 7}
	if e.Unblocking() {
		t.Fatal("GoCreate is not an unblocking action")
	}
	e = Event{Type: EvMutexUnlock}
	if e.Unblocking() {
		t.Fatal("unlock with no peer should be NOP")
	}
}

func TestBlockReasonPayload(t *testing.T) {
	e := Event{Type: EvGoBlock, Aux: int64(BlockSelect)}
	if e.BlockReason() != BlockSelect {
		t.Fatalf("BlockReason = %v, want select", e.BlockReason())
	}
	e = Event{Type: EvChanSend, Aux: int64(BlockSelect)}
	if e.BlockReason() != BlockNone {
		t.Fatal("non-block event should report BlockNone")
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := EvGoCreate; ty < evMax; ty++ {
		if strings.HasPrefix(ty.String(), "Type(") {
			t.Fatalf("type %d has no name", ty)
		}
		if CategoryOf(ty) == CatNone {
			t.Fatalf("type %s has no category", ty)
		}
	}
	if EvNone.Valid() || evMax.Valid() {
		t.Fatal("sentinel types must be invalid")
	}
	if !EvChanSend.Valid() {
		t.Fatal("EvChanSend must be valid")
	}
}

func TestEventStringContainsEssentials(t *testing.T) {
	e := Event{Ts: 5, G: 2, Type: EvChanSend, Res: 1, Blocked: true, File: "x.go", Line: 9}
	s := e.String()
	for _, want := range []string{"g2", "ChanSend", "r1", "[blocked]", "x.go:9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got.Events, tr.Events)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Decode(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// randomEvent builds an arbitrary but encodable event from fuzz inputs.
func randomEvent(r *rand.Rand) Event {
	return Event{
		Ts:      r.Int63(),
		G:       GoID(r.Int63n(1000) + 1),
		Type:    Type(r.Intn(int(evMax)-1) + 1),
		File:    string(rune('a' + r.Intn(26))),
		Line:    r.Intn(10000),
		Res:     ResID(r.Uint64() >> 1),
		Peer:    GoID(r.Int63n(1000)),
		Aux:     r.Int63() - r.Int63(),
		Blocked: r.Intn(2) == 0,
		Str:     strings.Repeat("s", r.Intn(5)),
	}
}

// Property: Encode/Decode is lossless for arbitrary event sequences
// that respect the goroutine-introduction contract (Decode rejects the
// rest by design — see TestDecodeRejectsUnknownGoroutine).
func TestQuickEncodeDecode(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(int(n))
		known := []GoID{1}
		for i := 0; i < int(n); i++ {
			e := randomEvent(r)
			switch r.Intn(4) {
			case 0: // introduce a fresh goroutine by GoCreate
				e.Type = EvGoCreate
				e.G = known[r.Intn(len(known))]
				e.Peer = GoID(1000 + len(known))
				known = append(known, e.Peer)
			case 1: // introduce a fresh goroutine by its own GoStart
				e.Type = EvGoStart
				e.G = GoID(1000 + len(known))
				known = append(known, e.G)
			default:
				e.G = known[r.Intn(len(known))]
			}
			tr.Append(e)
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Events, tr.Events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Filter(p) ∪ Filter(!p) preserves all events and order.
func TestQuickFilterPartition(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(int(n))
		for i := 0; i < int(n); i++ {
			tr.Append(randomEvent(r))
		}
		p := func(e Event) bool { return e.G%2 == 0 }
		a := tr.Filter(p)
		b := tr.Filter(func(e Event) bool { return !p(e) })
		return a.Len()+b.Len() == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != sampleTrace().Len() {
		t.Fatalf("lines = %d, want %d", len(lines), sampleTrace().Len())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["type"] != "GoStart" || first["g"] != float64(1) {
		t.Fatalf("first event = %v", first)
	}
	// Block reasons export symbolically.
	tr := New(1)
	tr.Append(Event{Ts: 1, G: 1, Type: EvGoBlock, Aux: int64(BlockSelect)})
	buf.Reset()
	if err := tr.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"reason":"select"`) {
		t.Fatalf("reason not symbolic: %s", buf.String())
	}
}

// ---------------------------------------------------------------------
// Event sources: capability declarations and the codec's source record.

func TestSourceInfoDefaultsToSim(t *testing.T) {
	tr := New(0)
	if got := tr.SourceInfo(); got != SimSource {
		t.Fatalf("unstamped trace source = %+v, want SimSource", got)
	}
	if !tr.SourceInfo().Has(CapOpEvents | CapCompleteRun) {
		t.Fatal("SimSource must carry every capability")
	}
}

func TestValidateWindowSourceIntroducesByGoStart(t *testing.T) {
	tr := New(2)
	tr.Source = SourceInfo{Name: "native test", Caps: CapSourceLoc}
	tr.Append(Event{Ts: 1, G: 5, Type: EvGoStart})
	tr.Append(Event{Ts: 2, G: 5, Type: EvGoBlock, Aux: int64(BlockRecv)})
	if err := tr.Validate(); err != nil {
		t.Fatalf("window trace with GoStart introduction rejected: %v", err)
	}
	// An event by a goroutine with no introduction at all stays invalid
	// even for window sources.
	bad := New(1)
	bad.Source = tr.Source
	bad.Append(Event{Ts: 1, G: 5, Type: EvChanSend})
	if err := bad.Validate(); err == nil {
		t.Fatal("window trace accepted event with no introduction")
	}
}

func TestEncodeDecodeSourceRecord(t *testing.T) {
	tr := New(1)
	tr.Source = SourceInfo{Name: "native go1.23", Caps: CapSourceLoc | CapCreateObserved}
	tr.Append(Event{Ts: 1, G: 1, Type: EvGoEnd})
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("GOATECT2")) {
		t.Fatalf("sourced trace not encoded as v2: %q", buf.Bytes()[:8])
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != tr.Source {
		t.Fatalf("source record lost: %+v vs %+v", got.Source, tr.Source)
	}
	// Sim traces keep the original byte format exactly.
	sim := sampleTrace()
	buf.Reset()
	if err := sim.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("GOATECT1")) {
		t.Fatalf("sim trace not encoded as v1: %q", buf.Bytes()[:8])
	}
}

func TestDecodeRejectsUnknownGoroutine(t *testing.T) {
	// g3 never appears in a GoCreate or GoStart: Decode must reject the
	// stream instead of silently building a partial goroutine tree.
	tr := New(2)
	tr.Append(Event{Ts: 1, G: 1, Type: EvGoCreate, Peer: 2})
	tr.Append(Event{Ts: 2, G: 3, Type: EvChanSend, Res: 1})
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Decode(&buf)
	if err == nil || !strings.Contains(err.Error(), "never appeared in a GoCreate/GoStart") {
		t.Fatalf("partial-tree stream not rejected clearly: %v", err)
	}
	// The introductions themselves are accepted: created peers and
	// self-starting goroutines.
	ok := New(3)
	ok.Append(Event{Ts: 1, G: 1, Type: EvGoCreate, Peer: 2})
	ok.Append(Event{Ts: 2, G: 3, Type: EvGoStart})
	ok.Append(Event{Ts: 3, G: 2, Type: EvChanRecv, Res: 1})
	buf.Reset()
	if err := ok.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err != nil {
		t.Fatalf("introduced goroutines rejected: %v", err)
	}
}

func TestTraceReplayIsEventSource(t *testing.T) {
	var _ EventSource = (*Trace)(nil)
	tr := sampleTrace()
	out := New(tr.Len())
	if err := tr.Replay(out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Events, tr.Events) {
		t.Fatal("replay did not deliver the identical stream")
	}
}
