package goker

import (
	"bytes"
	"testing"

	"goat/internal/cover"
	"goat/internal/detect"
	"goat/internal/sim"
	"goat/internal/trace"
)

// The streaming pipeline must be indistinguishable from the buffered one:
// for every registered kernel, a run with the analyses attached as event
// sinks produces a byte-identical ECT, identical detector verdicts, and
// identical coverage statistics to the classic buffer-then-post-hoc run.

func equivOptions() sim.Options {
	return sim.Options{Seed: 3, Delays: 2, MaxSteps: 50000}
}

func encodeECT(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	if tr == nil {
		t.Fatal("nil trace")
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestStreamingEquivalence(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			// Post-hoc reference: buffered ECT, detectors and coverage on it.
			ref := Run(k, equivOptions())
			goatRef := detect.Goat{}.Detect(ref)
			lockRef := detect.LockDL{}.Detect(ref)
			refModel := cover.NewModel(nil)
			statsRef := refModel.AddRun(ref.Trace)

			// Streaming run: same options, online detectors and coverage as
			// sinks, plus a *Trace sink that must collect the same ECT.
			gs := detect.Goat{}.NewStream()
			ls := detect.LockDL{}.NewStream()
			model := cover.NewModel(nil)
			cs := model.StreamRun()
			collected := trace.New(0)
			opts := equivOptions()
			opts.Sinks = []trace.Sink{collected, gs, ls, cs}
			r := Run(k, opts)

			want := encodeECT(t, ref.Trace)
			if !bytes.Equal(encodeECT(t, collected), want) {
				t.Errorf("sink-collected ECT differs from the buffered ECT")
			}
			if !bytes.Equal(encodeECT(t, r.Trace), want) {
				t.Errorf("internal ECT with sinks attached differs from the buffered ECT")
			}
			if got := gs.Finish(r); got != goatRef {
				t.Errorf("goat: streamed %+v != post-hoc %+v", got, goatRef)
			}
			if got := ls.Finish(r); got != lockRef {
				t.Errorf("lockdl: streamed %+v != post-hoc %+v", got, lockRef)
			}
			if got := cs.Finish(); got != statsRef {
				t.Errorf("coverage: streamed %+v != post-hoc %+v", got, statsRef)
			}

			// Trace-free run: sinks only, no ECT buffered at all.
			gs2 := detect.Goat{}.NewStream()
			ls2 := detect.LockDL{}.NewStream()
			opts2 := equivOptions()
			opts2.NoTrace = true
			opts2.Sinks = []trace.Sink{gs2, ls2}
			r2 := Run(k, opts2)
			if r2.Trace != nil {
				t.Fatal("NoTrace run still buffered a trace")
			}
			if got := gs2.Finish(r2); got != goatRef {
				t.Errorf("goat trace-free: %+v != post-hoc %+v", got, goatRef)
			}
			if got := ls2.Finish(r2); got != lockRef {
				t.Errorf("lockdl trace-free: %+v != post-hoc %+v", got, lockRef)
			}
		})
	}
}
