package ingest

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

func TestParseWireRejectsBadHeader(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"goatect", "GOATECT1\x00\x00"},
		{"garbage", "not a trace at all"},
		{"old-version", "go 1.19 trace\x00\x00\x00"},
		{"future-version", "go 1.99 trace\x00\x00\x00"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parseWire([]byte(c.input)); err == nil {
				t.Fatal("parseWire accepted invalid input")
			}
		})
	}
}

// TestParseWireTruncationRobustness feeds every prefix of a real capture
// to the parser: truncated input must produce an error or a short
// parse, never a panic or a hang.
func TestParseWireTruncationRobustness(t *testing.T) {
	data, err := os.ReadFile(leakyFixture)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 97
	}
	for n := 0; n < len(data); n += step {
		_, _ = parseWire(data[:n]) // must not panic
	}
}

// TestParseWireCorruptionRobustness flips bytes in the body: corrupt
// input must never panic the parser (errors and garbage events are
// acceptable; memory-unsafe behavior is not).
func TestParseWireCorruptionRobustness(t *testing.T) {
	data, err := os.ReadFile(leakyFixture)
	if err != nil {
		t.Fatal(err)
	}
	header := len("go 1.23 trace\x00\x00\x00")
	for i := header; i < len(data); i += 31 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		w, err := parseWire(mut)
		if err != nil {
			continue
		}
		// A parse that survives corruption must still convert safely.
		_, _ = Parse(bytes.NewReader(mut))
		_ = w
	}
}

func TestParseWireTables(t *testing.T) {
	data, err := os.ReadFile(leakyFixture)
	if err != nil {
		t.Fatal(err)
	}
	w, err := parseWire(data)
	if err != nil {
		t.Fatal(err)
	}
	if w.version != 23 {
		t.Errorf("version = %d, want 23", w.version)
	}
	if w.freq <= 0 {
		t.Errorf("freq = %v, want > 0", w.freq)
	}
	if len(w.events) == 0 {
		t.Fatal("no timed events parsed")
	}
	// The capture must contain resolvable strings and stacks — the
	// block-reason vocabulary at minimum.
	foundReason := false
	for _, g := range w.gens {
		for _, s := range g.strings {
			if s == "chan send" {
				foundReason = true
			}
		}
	}
	if !foundReason {
		t.Error(`string table is missing "chan send" — table parsing is broken`)
	}
	// Every referenced stack resolves to frames with file:line.
	resolved := 0
	for _, ev := range w.events {
		n := wireSpecs[ev.typ].args - 1 // arguments after the dt
		if n == 0 {
			continue
		}
		for _, fr := range w.resolveStack(ev.gen, ev.args[n-1]) {
			if fr.file != "" && fr.line > 0 {
				resolved++
			}
		}
	}
	if resolved == 0 {
		t.Error("no stack frame resolved to a source location")
	}
}

// allocDuring returns how many bytes f allocated.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseBoundsAllocation feeds ~32-byte captures whose length fields
// declare far more data than they carry: the parser must reject them
// without allocating what they declare.
func TestParseBoundsAllocation(t *testing.T) {
	batch := func() *wireBuf { return newWireBuf().rec(wevEventBatch, 1, 0, 0, 0) }
	cases := map[string][]byte{
		"16MiB-string":     batch().rec(wevString, 1, 16<<20).b,
		"16MiB-experiment": batch().rec(wevExperimentBatch, 0, 1, 0, 0, 16<<20).b,
		"1024-frame-stack": batch().rec(wevStack, 1, 1024).b,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			n := allocDuring(func() { _, err = Parse(bytes.NewReader(data)) })
			if err == nil {
				t.Fatal("Parse accepted a truncated capture")
			}
			if n >= 1<<20 {
				t.Errorf("a %d-byte input allocated %d bytes", len(data), n)
			}
		})
	}
}
