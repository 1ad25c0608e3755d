package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"goat/internal/detect"
	"goat/internal/harness"
	"goat/internal/profile"
	"goat/internal/trace"
)

// TestWrappersPreserveInterfaces checks that every value the benchmark
// wraps keeps exactly its optional interfaces behind the wrapper, and
// that a set with no wrapper type is refused rather than narrowed.
func TestWrappersPreserveInterfaces(t *testing.T) {
	for _, spec := range harness.DefaultTools() {
		w, err := wrapDetector(spec.Detector, &layerAcc{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		inner, innerOK := spec.Detector.(detect.Streaming)
		outer, outerOK := w.(detect.Streaming)
		if innerOK != outerOK {
			t.Fatalf("%s: wrapper Streaming=%v, detector Streaming=%v", spec.Name, outerOK, innerOK)
		}
		if innerOK {
			if got, want := facets(outer.NewStream()), facets(inner.NewStream()); got != want {
				t.Errorf("%s stream: wrapper interfaces %06b, stream %06b", spec.Name, got, want)
			}
		}
	}
	leak := detect.Leak{}.NewStream()
	ws, err := wrapStream(leak, &layerAcc{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := facets(ws), facets(leak); got != want {
		t.Errorf("leak stream: wrapper interfaces %06b, stream %06b", got, want)
	}
	for _, s := range []trace.Sink{trace.NewRingSink(8), profile.NewLatencySink()} {
		w, err := wrapSink(s, &layerAcc{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := facets(w), facets(s); got != want {
			t.Errorf("%T: wrapper interfaces %06b, sink %06b", s, got, want)
		}
	}
	if _, err := wrapSink(trace.NewMultiSink(), &layerAcc{}); err == nil {
		t.Error("MultiSink (batch+stopper+source-aware) was wrapped; want a refusal")
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that it passes its own checks and prints exactly the metrics
// BENCHMARK.json declares. The traced run also checks that every traced
// operation reproduces the untraced one with the same inputs: the same
// Table IV cells, verdicts, witnesses, strand counts and ECT bytes.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, Workloads)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range Workloads {
		for _, traced := range []bool{false, true} {
			res, err := Run(Config{Workload: name, Seed: 2, Seconds: 1e-3, Trace: traced, Smoke: true, Log: testLog{t}})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want[traced]))
			}
			for m, unit := range want[traced] {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", name, traced, m, got.Unit, unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// TestCorruptCaptureStillReports runs the capture workload on an input
// that is not an execution trace. Every operation fails before it
// measures anything, and the result must still be printed, with every
// operation counted as failed and exit code 1.
func TestCorruptCaptureStillReports(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("not a Go execution trace"))
	zw.Close()
	res, err := run(Config{Workload: "capture", Seconds: 1e-3, Smoke: true}, &capture{gz: gz.Bytes(), strands: smokeCaptureStrands})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := Report(&out, res)
	if err != nil {
		t.Fatalf("result not printed: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	var back Result
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatalf("printed %q: %v", out.String(), err)
	}
	if back.Correct || back.Attempted == 0 || back.Failed != back.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want every operation failed", back.Correct, back.Attempted, back.Failed)
	}
	if len(back.Metrics) != len(EndToEnd) {
		t.Errorf("%d metrics printed, want %d", len(back.Metrics), len(EndToEnd))
	}
}

// testLog sends the benchmark's failure lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
