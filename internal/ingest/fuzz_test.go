package ingest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"goat/internal/trace"
)

// wireBuf assembles a synthetic go1.23 capture record by record.
type wireBuf struct{ b []byte }

func newWireBuf() *wireBuf { return &wireBuf{b: []byte("go 1.23 trace\x00\x00\x00")} }

// rec appends one record: its type byte and uvarint arguments.
func (w *wireBuf) rec(typ byte, args ...uint64) *wireBuf {
	w.b = append(w.b, typ)
	for _, a := range args {
		w.b = binary.AppendUvarint(w.b, a)
	}
	return w
}

// str appends a string-table record.
func (w *wireBuf) str(id uint64, s string) *wireBuf {
	w.rec(wevString, id, uint64(len(s)))
	w.b = append(w.b, s...)
	return w
}

// syntheticWindow is a minimal valid capture: g1 starts and parks on a
// channel send, then g2 starts on the same M and wakes it.
func syntheticWindow() []byte {
	return newWireBuf().
		rec(wevFrequency, 15625000).
		rec(wevEventBatch, 1, 0, 100, 0).
		rec(wevGoStart, 1, 1, 0).
		rec(wevGoBlock, 1, 1, 0).
		rec(wevGoStart, 1, 2, 0).
		rec(wevGoUnblock, 1, 1, 2, 0).
		rec(wevStrings).
		str(1, "chan send").b
}

// FuzzIngestParse checks native-trace ingestion on arbitrary input. The
// seeds are the checked-in captures, truncations of them and a minimal
// synthetic window; testdata/fuzz holds small inputs earlier fuzzing
// found interesting. Invariants:
//
//   - Parse never panics (its allocation bound on hostile input is pinned
//     by TestParseBoundsAllocation);
//   - an accepted capture converts to an ECT that passes Validate, with
//     exactly one wall-clock offset per event;
//   - that ECT survives Encode→Decode→Encode byte-identically.
func FuzzIngestParse(f *testing.F) {
	for _, path := range []string{leakyFixture, cleanFixture, smokeFixture} {
		data := readFixture(f, path)
		f.Add(data)
		for _, cut := range []int{16, 64, len(data) / 4, len(data) / 2, len(data) - 1} {
			f.Add(data[:cut])
		}
	}
	f.Add(syntheticWindow())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if err := r.Trace.Validate(); err != nil {
			t.Fatalf("accepted capture converts to an invalid ECT: %v", err)
		}
		if len(r.Wall) != r.Trace.Len() {
			t.Fatalf("wall table has %d entries for %d events", len(r.Wall), r.Trace.Len())
		}
		var b1 bytes.Buffer
		if err := r.Trace.Encode(&b1); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		back, err := trace.Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("converted ECT does not decode: %v", err)
		}
		var b2 bytes.Buffer
		if err := back.Encode(&b2); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("ECT changed across Encode→Decode→Encode (%d vs %d bytes)", b1.Len(), b2.Len())
		}
	})
}
