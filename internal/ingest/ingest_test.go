package ingest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"goat/internal/detect"
	"goat/internal/sim"
	"goat/internal/trace"
)

// The two checked-in fixtures are real runtime/trace captures of
// examples/native/{leakypool,cleanpool}: structural twins, one with a
// planted stranded-sender leak (3 goroutines parked on `results <-` at
// leakypool/main.go:30), one clean.
const (
	leakyFixture = "testdata/leakypool.trace"
	cleanFixture = "testdata/cleanpool.trace"
)

func parseFixture(t *testing.T, path string) *Run {
	t.Helper()
	r, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile(%s): %v", path, err)
	}
	return r
}

func TestParseLeakyFixture(t *testing.T) {
	r := parseFixture(t, leakyFixture)
	if r.Info.Version != 23 {
		t.Errorf("Version = %d, want 23", r.Info.Version)
	}
	if r.Info.MainEnded {
		t.Error("MainEnded = true; the capture stops while main sleeps")
	}
	if r.Info.WallNs < 100e6 {
		t.Errorf("WallNs = %d, want >= 100ms (the quiesce window)", r.Info.WallNs)
	}
	if r.Info.Goroutines == 0 || r.Info.Created == 0 || r.Info.Orphans == 0 {
		t.Errorf("implausible census: %+v", r.Info)
	}
	if got := r.Trace.SourceInfo(); got != Source(23) {
		t.Errorf("SourceInfo = %+v, want %+v", got, Source(23))
	}
	if r.Trace.SourceInfo().Has(trace.CapOpEvents) {
		t.Error("native trace must not claim CapOpEvents")
	}
	if !r.Trace.SourceInfo().Has(trace.CapSourceLoc) {
		t.Error("native trace must claim CapSourceLoc")
	}
	if err := r.Trace.Validate(); err != nil {
		t.Errorf("converted trace fails validation: %v", err)
	}
}

func TestStrandedLeakyPool(t *testing.T) {
	r := parseFixture(t, leakyFixture)
	stranded := r.StrandedGoroutines(StrandedOpts{})
	if len(stranded) != 3 {
		t.Fatalf("stranded = %d, want exactly the 3 planted senders:\n%v", len(stranded), stranded)
	}
	for _, s := range stranded {
		if s.Name != "main.worker.func1" {
			t.Errorf("g%d name = %q, want main.worker.func1", s.G, s.Name)
		}
		if s.Reason != trace.BlockSend {
			t.Errorf("g%d reason = %v, want chan-send", s.G, s.Reason)
		}
		if !strings.HasSuffix(s.File, "leakypool/main.go") || s.Line != 30 {
			t.Errorf("g%d block site = %s:%d, want .../leakypool/main.go:30", s.G, s.File, s.Line)
		}
		if !strings.HasSuffix(s.CreateFile, "leakypool/main.go") || s.CreateLine != 29 {
			t.Errorf("g%d create site = %s:%d, want .../leakypool/main.go:29", s.G, s.CreateFile, s.CreateLine)
		}
		if s.Siblings != 3 {
			t.Errorf("g%d siblings = %d, want 3", s.G, s.Siblings)
		}
		if s.Wakes != 0 {
			t.Errorf("g%d wakes = %d, a stranded sender is never woken", s.G, s.Wakes)
		}
		if s.BlockedNs < 100e6 {
			t.Errorf("g%d blockedNs = %d, want >= 100ms", s.G, s.BlockedNs)
		}
	}
	// All three planted leaks share one signature.
	if a, b := stranded[0].Signature(), stranded[2].Signature(); a != b {
		t.Errorf("signatures differ: %q vs %q", a, b)
	}
}

// TestCPUSamplesAndWallFixture pins the profiling-plane side of the
// fixtures: both pools run the CPU profiler while tracing, so the
// captures must carry CPU-sample batches, and every converted event
// must have a wall-clock offset in the side table.
func TestCPUSamplesAndWallFixture(t *testing.T) {
	for _, path := range []string{leakyFixture, cleanFixture} {
		r := parseFixture(t, path)
		if r.Info.CPUSamples == 0 || len(r.CPUSamples) == 0 {
			t.Errorf("%s: no CPU samples (info=%d, samples=%d); fixture captured without the profiler?",
				path, r.Info.CPUSamples, len(r.CPUSamples))
			continue
		}
		burn := 0
		for _, s := range r.CPUSamples {
			if s.WallNs < 0 || s.WallNs > r.Info.WallNs {
				t.Errorf("%s: sample wall offset %d outside window [0,%d]", path, s.WallNs, r.Info.WallNs)
			}
			if len(s.Stack) == 0 {
				t.Errorf("%s: sample with empty stack", path)
				continue
			}
			for _, f := range s.Stack {
				if f.Func == "main.burnCPU" {
					burn++
					break
				}
			}
		}
		if burn == 0 {
			t.Errorf("%s: no sample lands in main.burnCPU out of %d", path, len(r.CPUSamples))
		}
		if len(r.Wall) != r.Trace.Len() {
			t.Fatalf("%s: wall table has %d entries for %d events", path, len(r.Wall), r.Trace.Len())
		}
		for i, w := range r.Wall {
			if w < 0 || w > r.Info.WallNs {
				t.Errorf("%s: event %d wall offset %d outside window [0,%d]", path, i, w, r.Info.WallNs)
			}
		}
	}
}

// TestSyscallClassification pins that syscall-blocked goroutines are
// classified distinctly from scheduler parks: the profileWriter drains
// the profile buffer through real file syscalls during the window, so
// the leaky capture must contain BlockSyscall parks — and none of them
// may surface as stranded.
func TestSyscallClassification(t *testing.T) {
	r := parseFixture(t, leakyFixture)
	syscalls := 0
	for _, e := range r.Trace.Events {
		if e.Type == trace.EvGoBlock && e.BlockReason() == trace.BlockSyscall {
			syscalls++
		}
	}
	if syscalls == 0 {
		t.Fatal("no BlockSyscall parks in the leaky fixture; syscall classification regressed")
	}
	for _, s := range r.StrandedGoroutines(StrandedOpts{}) {
		if s.Reason == trace.BlockSyscall {
			t.Errorf("g%d reported stranded in a syscall: %+v", s.G, s)
		}
	}
}

func TestStrandedCleanPool(t *testing.T) {
	r := parseFixture(t, cleanFixture)
	if stranded := r.StrandedGoroutines(StrandedOpts{}); len(stranded) != 0 {
		t.Fatalf("clean pool reports stranded goroutines:\n%v", stranded)
	}
}

func TestRuntimeGoroutinesAreSystem(t *testing.T) {
	r := parseFixture(t, leakyFixture)
	for _, gi := range r.Gs {
		if gi.System {
			continue
		}
		if strings.Contains(gi.File, "/runtime/") || strings.Contains(gi.CreateFile, "/runtime/") {
			t.Errorf("g%d (%q) sits in runtime code but is not marked system: %+v", gi.ID, gi.Name, gi)
		}
	}
}

func TestDiffCleanVsLeaky(t *testing.T) {
	clean := parseFixture(t, cleanFixture)
	leaky := parseFixture(t, leakyFixture)

	d := DiffRuns(clean, leaky, StrandedOpts{})
	if !d.Regressed() {
		t.Fatal("clean -> leaky must regress")
	}
	if got := d.Verdict(); got != "LEAK-3" {
		t.Errorf("Verdict = %q, want LEAK-3 (exactly the planted delta)", got)
	}
	if len(d.Grown) != 1 {
		t.Fatalf("Grown = %d signatures, want 1:\n%s", len(d.Grown), d)
	}
	e := d.Grown[0]
	if e.Old != 0 || e.New != 3 {
		t.Errorf("entry counts = %d -> %d, want 0 -> 3", e.Old, e.New)
	}
	if !strings.Contains(e.Signature, "main.worker.func1") ||
		!strings.Contains(e.Signature, "leakypool/main.go:30") {
		t.Errorf("signature %q does not name the planted leak", e.Signature)
	}

	// Self-diff is clean in both directions.
	if d := DiffRuns(leaky, leaky, StrandedOpts{}); d.Regressed() {
		t.Errorf("self-diff regressed: %s", d)
	}
	// Fixing the leak is an improvement, not a regression.
	d = DiffRuns(leaky, clean, StrandedOpts{})
	if d.Regressed() {
		t.Errorf("leaky -> clean must not regress: %s", d)
	}
	if len(d.Shrunk) != 1 {
		t.Errorf("leaky -> clean Shrunk = %d, want 1", len(d.Shrunk))
	}
	if got := d.Verdict(); got != "OK" {
		t.Errorf("leaky -> clean Verdict = %q, want OK", got)
	}
}

// TestDetectorsOnNativeTrace is the acceptance check that the existing
// detectors run unmodified on an ingested capture and degrade along
// their declared contracts.
func TestDetectorsOnNativeTrace(t *testing.T) {
	leaky := parseFixture(t, leakyFixture)
	res := &sim.Result{Trace: leaky.Trace, MainEnded: leaky.Info.MainEnded}

	// Goat switches to the blocked-at-window-end census (PDL-n) because
	// the window never settles.
	d := detect.Goat{}.Detect(res)
	if !d.Found || !strings.HasPrefix(d.Verdict, "PDL-") {
		t.Errorf("goat on leaky window = %+v, want Found with PDL-n verdict", d)
	}

	// LockDL needs lock operation events the native tracer cannot
	// provide; it must say so rather than fabricate an answer.
	d = detect.LockDL{}.Detect(res)
	if d.Found || d.Verdict != "N/A" {
		t.Errorf("lockdl on native trace = %+v, want N/A (CapOpEvents absent)", d)
	}

	// Goleak hangs when main outlives the window — exactly its
	// real-world behavior on a still-running process.
	d = detect.Goleak{}.Detect(res)
	if d.Verdict != "HANG" {
		t.Errorf("goleak on open window = %+v, want HANG", d)
	}

	// The clean twin: goat reports only main's benign sleep-park census
	// or OK; whatever the count, it must not attribute chan-send leaks.
	clean := parseFixture(t, cleanFixture)
	d = detect.Goat{}.Detect(&sim.Result{Trace: clean.Trace, MainEnded: clean.Info.MainEnded})
	if d.Verdict != "OK" && !strings.HasPrefix(d.Verdict, "PDL-") {
		t.Errorf("goat on clean window = %+v", d)
	}
}

func TestNativeTraceEncodeDecodeRoundTrip(t *testing.T) {
	r := parseFixture(t, leakyFixture)
	var buf bytes.Buffer
	if err := r.Trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(back.Events, r.Trace.Events) {
		t.Error("events changed across encode/decode")
	}
	if back.SourceInfo() != r.Trace.SourceInfo() {
		t.Errorf("source changed across encode/decode: %+v vs %+v",
			back.SourceInfo(), r.Trace.SourceInfo())
	}
}

// TestChromeExportNativeTrace is the property check for the exporter on
// ingested traces: it must render without panicking and emit every ECT
// event exactly once, exactly as it does for virtual-runtime traces.
func TestChromeExportNativeTrace(t *testing.T) {
	for _, path := range []string{leakyFixture, cleanFixture} {
		r := parseFixture(t, path)
		var buf bytes.Buffer
		if err := r.Trace.EncodeChrome(&buf, trace.ChromeOptions{}); err != nil {
			t.Fatalf("%s: EncodeChrome: %v", path, err)
		}
		var file struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
			t.Fatalf("%s: export is not valid JSON: %v", path, err)
		}
		seen := map[int64]int{}
		for _, ce := range file.TraceEvents {
			args, _ := ce["args"].(map[string]any)
			if args == nil {
				continue
			}
			if ts, ok := args["ect_ts"]; ok {
				seen[int64(ts.(float64))]++
			}
		}
		if len(seen) != r.Trace.Len() {
			t.Fatalf("%s: %d distinct slices for %d events", path, len(seen), r.Trace.Len())
		}
		for _, e := range r.Trace.Events {
			if seen[e.Ts] != 1 {
				t.Fatalf("%s: event ts=%d rendered %d times", path, e.Ts, seen[e.Ts])
			}
		}
	}
}

func TestSniffNative(t *testing.T) {
	cases := []struct {
		prefix string
		want   bool
	}{
		{"go 1.23 trace\x00\x00\x00", true},
		{"go 1.22 trace\x00\x00\x00", true},
		{"go ", true},
		{"GOATECT1", false},
		{"GOATECT2", false},
		{"g", false},
		{"", false},
	}
	for _, c := range cases {
		if got := SniffNative([]byte(c.prefix)); got != c.want {
			t.Errorf("SniffNative(%q) = %v, want %v", c.prefix, got, c.want)
		}
	}
}
