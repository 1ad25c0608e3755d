package profile

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"goat/internal/trace"
)

// poolTrace hand-builds the smallest trace exercising every profile:
// main creates a worker that first contends a mutex (resource 7), is
// woken, then strands forever on a channel send.
func poolTrace() *trace.Trace {
	t := trace.New(8)
	ts := int64(0)
	add := func(e trace.Event) {
		ts++
		e.Ts = ts
		t.Append(e)
	}
	add(trace.Event{G: 1, Type: trace.EvGoStart})
	add(trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 2, Str: "worker", File: "pool.go", Line: 10})
	add(trace.Event{G: 2, Type: trace.EvGoStart})
	add(trace.Event{G: 2, Type: trace.EvGoBlock, Res: 7, Aux: int64(trace.BlockMutex), File: "pool.go", Line: 20})
	add(trace.Event{G: 1, Type: trace.EvGoUnblock, Peer: 2, Res: 7})
	add(trace.Event{G: 2, Type: trace.EvGoBlock, Res: 3, Aux: int64(trace.BlockSend), File: "pool.go", Line: 30})
	add(trace.Event{G: 1, Type: trace.EvGoEnd})
	return t
}

func TestBuildBlockMutexCensus(t *testing.T) {
	set := Build(poolTrace(), Options{})

	if n := len(set.Block.Samples); n != 2 {
		t.Fatalf("block samples = %d, want 2:\n%s", n, set.Block.Top(0))
	}
	for _, s := range set.Block.Samples {
		// Logical clock: mutex span is Ts 4..5, strand span Ts 6..7.
		if s.Count != 1 || s.Value != 1 {
			t.Errorf("sample %v = count %d value %d, want 1/1", s.Stack, s.Count, s.Value)
		}
		if len(s.Stack) != 2 || s.Stack[1].Func != "created by main" {
			t.Errorf("sample stack %v lacks the creator parent frame", s.Stack)
		}
	}

	if n := len(set.Mutex.Samples); n != 1 {
		t.Fatalf("mutex samples = %d, want just the lock contention:\n%s", n, set.Mutex.Top(0))
	}
	m := set.Mutex.Samples[0]
	if m.Stack[0].Func != "lock#7" {
		t.Errorf("mutex leaf = %q, want the resource identity lock#7", m.Stack[0].Func)
	}

	// main ended; only the stranded worker remains in the census.
	if n := len(set.Goroutine.Samples); n != 1 {
		t.Fatalf("census = %d stacks, want 1:\n%s", n, set.Goroutine.Top(0))
	}
	c := set.Goroutine.Samples[0]
	if c.Count != 1 || c.Stack[0].Func != "worker [chan-send]" {
		t.Errorf("census leaf = %+v, want 1 worker [chan-send]", c)
	}

	if set.CPU != nil {
		t.Error("CPU profile built without samples")
	}
}

func TestBuildWallTable(t *testing.T) {
	// Same trace, but a wall table stretches the strand span to 600ns
	// (park at 100, window ends at 700) and the mutex span to 60.
	wall := []int64{0, 10, 20, 40, 100, 100, 700}
	set := Build(poolTrace(), Options{Wall: wall})

	top := set.Block.Samples[0]
	if !strings.Contains(top.Stack[0].Func, "chan-send") || top.Value != 600 {
		t.Errorf("top block sample = %v value %d, want the stranded send charged 600ns",
			top.Stack, top.Value)
	}
	if set.Mutex.Samples[0].Value != 60 {
		t.Errorf("mutex value = %d, want 60ns from the wall table", set.Mutex.Samples[0].Value)
	}
	if set.Block.SpanNs != 700 {
		t.Errorf("SpanNs = %d, want 700", set.Block.SpanNs)
	}
}

func TestBuildCPU(t *testing.T) {
	stack := []Frame{{Func: "main.burn", File: "pool.go", Line: 50}, {Func: "main.main"}}
	set := Build(poolTrace(), Options{
		CPUSamples: []CPUSample{{G: 1, Stack: stack}, {G: 1, Stack: stack}},
	})
	if set.CPU == nil {
		t.Fatal("no CPU profile from samples")
	}
	s := set.CPU.Samples[0]
	if s.Count != 2 || s.Value != 2*DefaultCPUPeriodNs {
		t.Errorf("cpu sample = count %d value %d, want 2 hits at the default period", s.Count, s.Value)
	}
	if set.CPU.PeriodNs != DefaultCPUPeriodNs {
		t.Errorf("PeriodNs = %d, want %d", set.CPU.PeriodNs, DefaultCPUPeriodNs)
	}
}

func TestSystemGoroutinesSuppressed(t *testing.T) {
	tr := trace.New(8)
	ts := int64(0)
	add := func(e trace.Event) {
		ts++
		e.Ts = ts
		tr.Append(e)
	}
	add(trace.Event{G: 1, Type: trace.EvGoStart})
	add(trace.Event{G: 1, Type: trace.EvGoCreate, Peer: 2, Str: "gc", Aux: 1})
	add(trace.Event{G: 2, Type: trace.EvGoStart})
	add(trace.Event{G: 2, Type: trace.EvGoBlock, Aux: int64(trace.BlockSelect)})

	if set := Build(tr, Options{}); len(set.Block.Samples) != 0 {
		t.Errorf("system park leaked into the block profile:\n%s", set.Block.Top(0))
	}
}

// TestSamplesMergeByFoldedStack pins that samples are keyed by their
// folded rendering: two block sites in different directories whose
// trimmed paths coincide fold into one sample.
func TestSamplesMergeByFoldedStack(t *testing.T) {
	tr := trace.New(8)
	for i, e := range []trace.Event{
		{G: 1, Type: trace.EvGoStart},
		{G: 1, Type: trace.EvGoCreate, Peer: 2, Str: "worker", File: "pool.go", Line: 10},
		{G: 1, Type: trace.EvGoCreate, Peer: 3, Str: "worker", File: "pool.go", Line: 10},
		{G: 2, Type: trace.EvGoStart},
		{G: 2, Type: trace.EvGoBlock, Aux: int64(trace.BlockSend), File: "/a/x/pkg/f.go", Line: 7},
		{G: 3, Type: trace.EvGoStart},
		{G: 3, Type: trace.EvGoBlock, Aux: int64(trace.BlockSend), File: "/b/y/pkg/f.go", Line: 7},
	} {
		e.Ts = int64(i + 1)
		tr.Append(e)
	}
	set := Build(tr, Options{})
	if n := len(set.Block.Samples); n != 1 {
		t.Fatalf("block samples = %d, want the two parks folded into 1:\n%s", n, set.Block.Top(0))
	}
	if s := set.Block.Samples[0]; s.Count != 2 || s.Stack[0].File != "/a/x/pkg/f.go" {
		t.Errorf("sample = %+v, want count 2 under the first-seen site", s)
	}
}

func TestWriteFoldedGolden(t *testing.T) {
	set := Build(poolTrace(), Options{})
	var buf bytes.Buffer
	if err := set.Block.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "created by main pool.go:10;worker [chan-send] pool.go:30 1\n" +
		"created by main pool.go:10;worker [mutex] pool.go:20 1\n"
	if buf.String() != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", buf.String(), want)
	}

	buf.Reset()
	if err := set.Goroutine.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want = "created by main pool.go:10;worker [chan-send] pool.go:30 1\n"
	if buf.String() != want {
		t.Errorf("census folded output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestPprofRoundTrip proves the hand-rolled protobuf encoding is the
// real pprof wire format: `go tool pprof -top` must parse it and rank
// the stranded send first.
func TestPprofRoundTrip(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	set := Build(poolTrace(), Options{Wall: []int64{0, 10, 20, 40, 100, 100, 700}})
	dir := t.TempDir()
	for _, p := range []*Profile{set.Block, set.Mutex, set.Goroutine} {
		path := dir + "/" + string(p.Kind) + ".pb.gz"
		var buf bytes.Buffer
		if err := p.WritePprof(&buf); err != nil {
			t.Fatalf("%s: WritePprof: %v", p.Kind, err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command("go", "tool", "pprof", "-top", path).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: go tool pprof -top: %v\n%s", p.Kind, err, out)
		}
		if p.Kind == KindBlock && !strings.Contains(string(out), "worker [chan-send]") {
			t.Errorf("block -top output does not rank the stranded send:\n%s", out)
		}
		if p.Kind == KindMutex && !strings.Contains(string(out), "lock#7") {
			t.Errorf("mutex -top output does not name the resource:\n%s", out)
		}
	}
}

func TestLatencySink(t *testing.T) {
	l := NewLatencySink()
	emit := func(ts int64, marker string, id int64) {
		l.Event(trace.Event{Ts: ts, G: 1, Type: trace.EvUserLog, Str: marker, Aux: id})
	}
	// 100 requests with latency == id (1..100), one left in flight, one
	// orphan done marker.
	for id := int64(1); id <= 100; id++ {
		emit(id, ReqStartMarker, id)
		emit(2*id, ReqDoneMarker, id)
	}
	emit(500, ReqStartMarker, 999)
	emit(501, ReqDoneMarker, 777)

	if l.Count() != 100 || l.Open() != 1 || l.dropped != 1 {
		t.Fatalf("count=%d open=%d dropped=%d, want 100/1/1", l.Count(), l.Open(), l.dropped)
	}
	p50, p95, p99 := l.Percentiles()
	if p50 != 50 || p95 != 95 || p99 != 99 {
		t.Errorf("percentiles = %d/%d/%d, want 50/95/99 (nearest rank)", p50, p95, p99)
	}
	if s := l.String(); !strings.Contains(s, "100 requests (1 in flight)") {
		t.Errorf("String() = %q", s)
	}

	// Non-marker user logs are ignored.
	l.Event(trace.Event{Type: trace.EvUserLog, Str: "other", Aux: 1})
	if l.Count() != 100 {
		t.Error("non-marker log counted as a request")
	}
}
