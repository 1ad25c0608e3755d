package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// fuzzSeedTraces builds a few representative traces whose encodings seed
// the FuzzECTRoundTrip corpus: empty, a tiny valid schedule, and one
// exercising every field of Event (negative varints, Blocked, Str, Aux).
func fuzzSeedTraces() []*Trace {
	small := New(3)
	small.Append(Event{Ts: 1, G: 1, Type: EvGoCreate, File: "main.go", Line: 10, Peer: 2})
	small.Append(Event{Ts: 2, G: 2, Type: EvGoStart, File: "main.go", Line: 12})
	small.Append(Event{Ts: 3, G: 2, Type: EvChanSend, File: "main.go", Line: 13, Res: 1, Blocked: true})

	wide := New(4)
	wide.Append(Event{Ts: 5, G: 1, Type: EvChanMake, File: "a/b/c.go", Line: 1, Res: 7, Aux: 4})
	wide.Append(Event{Ts: 6, G: 1, Type: EvSelect, File: "a/b/c.go", Line: 2, Aux: -1})
	wide.Append(Event{Ts: 7, G: 1, Type: EvGoBlock, File: "", Line: 0, Aux: int64(BlockSend)})
	wide.Append(Event{Ts: 8, G: 1, Type: EvUserLog, File: "c.go", Line: 3, Str: "hello \x00 world"})

	// A goroutine introduced by its own GoStart (no GoCreate): valid per
	// the introduction contract, exercised by native-trace ingestion.
	window := New(2)
	window.Source = SourceInfo{Name: "native test", Caps: CapSourceLoc}
	window.Append(Event{Ts: 1, G: 9, Type: EvGoStart})
	window.Append(Event{Ts: 2, G: 9, Type: EvGoBlock, Aux: int64(BlockRecv)})

	return []*Trace{New(0), small, wide, window}
}

// fuzzRejectSeeds builds encodings Decode must reject without panicking.
// The partial-goroutine-tree case regressed once: an event by a
// goroutine that never appeared in a GoCreate/GoStart used to decode
// silently into a trace whose tree was missing the goroutine.
func fuzzRejectSeeds() [][]byte {
	orphan := New(2)
	orphan.Append(Event{Ts: 1, G: 1, Type: EvGoCreate, Peer: 2})
	orphan.Append(Event{Ts: 2, G: 3, Type: EvChanSend, Res: 1})
	var buf bytes.Buffer
	if err := orphan.Encode(&buf); err != nil {
		panic(err)
	}
	return [][]byte{buf.Bytes()}
}

// FuzzECTRoundTrip checks the ECT binary codec on arbitrary inputs.
//
// Raw input bytes are NOT required to round-trip byte-identically:
// binary.ReadUvarint accepts non-minimal varint spellings that Encode
// would never produce. The property is instead a canonical fixpoint —
// any input Decode accepts must re-encode to a canonical form that
// decodes to the same events and re-encodes to the same bytes. Inputs
// Decode rejects must fail with an error, never a panic or an
// unbounded allocation.
func FuzzECTRoundTrip(f *testing.F) {
	for _, tr := range fuzzSeedTraces() {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			f.Fatalf("encoding seed trace: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("NOTATRACE"))
	// Valid magic, implausibly huge event count.
	f.Add(append([]byte(magic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	for _, b := range fuzzRejectSeeds() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		var b1 bytes.Buffer
		if err := tr.Encode(&b1); err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr.Events, tr2.Events) {
			t.Fatalf("events changed across canonical round trip:\n%v\nvs\n%v", tr.Events, tr2.Events)
		}
		var b2 bytes.Buffer
		if err := tr2.Encode(&b2); err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("encode is not a fixpoint: %x vs %x", b1.Bytes(), b2.Bytes())
		}
	})
}

// TestDecodeBoundsAllocation feeds ~32-byte encodings whose headers
// declare far more than they carry — a 16 MiB string, 2^30 events: Decode
// must reject them without allocating what they declare, whether or not
// the reader knows its length.
func TestDecodeBoundsAllocation(t *testing.T) {
	uv := func(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
	// One event whose File declares 16 MiB: ts, g, type, then the length.
	bigString := uv(uv(uv(uv(uv([]byte(magic), 1), 2), 2), uint64(EvGoStart)), 1<<24)
	manyEvents := uv([]byte(magic), 1<<30)
	for name, data := range map[string][]byte{"16MiB-string": bigString, "2^30-events": manyEvents} {
		for _, sized := range []bool{true, false} {
			var r io.Reader = bytes.NewReader(data)
			if !sized {
				r = io.MultiReader(r) // hides Len
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := Decode(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s (sized=%v): Decode accepted a truncated encoding", name, sized)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("%s (sized=%v): a %d-byte input allocated %d bytes", name, sized, len(data), n)
			}
		}
	}
}
