package goker_test

import (
	"bytes"
	"reflect"
	"testing"

	"goat/internal/detect"
	"goat/internal/kernelgen"
	"goat/internal/trace"

	"goat/internal/goker"
	"goat/internal/sim"
)

// determinismOptions is the sweep configuration: a seed/delay pair with a
// bounded step budget so even the rare/racy kernels finish quickly.
func determinismOptions(seed int64) sim.Options {
	return sim.Options{Seed: seed, Delays: 2, MaxSteps: 50000}
}

// TestEveryKernelIsDeterministic runs every registered kernel — the
// pinned GoKer suite plus promoted fuzzer reproducers — twice under the
// same seed and requires byte-identical encoded ECTs and equal outcomes.
// The virtual runtime's whole value proposition is reproducibility; any
// hidden host-level nondeterminism (map iteration, real time, real
// channels) in a kernel or the scheduler shows up here first.
func TestEveryKernelIsDeterministic(t *testing.T) {
	for _, k := range goker.All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			r1 := goker.Run(k, determinismOptions(7))
			r2 := goker.Run(k, determinismOptions(7))
			if r1.Outcome != r2.Outcome {
				t.Fatalf("outcome differs across identical runs: %v vs %v", r1.Outcome, r2.Outcome)
			}
			var b1, b2 bytes.Buffer
			if err := r1.Trace.Encode(&b1); err != nil {
				t.Fatalf("encoding first trace: %v", err)
			}
			if err := r2.Trace.Encode(&b2); err != nil {
				t.Fatalf("encoding second trace: %v", err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatalf("encoded ECTs differ across identical runs (%d vs %d bytes)", b1.Len(), b2.Len())
			}
		})
	}
}

// TestEveryKernelReplays records each kernel's decision script and
// replays it: the replay must reproduce the outcome without structural
// divergence, the property the paper's debugging workflow (record one
// failing schedule, replay it under the inspector) rests on.
func TestEveryKernelReplays(t *testing.T) {
	for _, k := range goker.All() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			opts := determinismOptions(11)
			opts.Record = true
			rec := goker.Run(k, opts)

			replayOpts := determinismOptions(11)
			replayOpts.Replay = rec.Schedule
			rep := goker.Run(k, replayOpts)
			if rep.ReplayDiverged {
				t.Fatalf("replay diverged from recorded schedule (outcome %v, recorded %v)", rep.Outcome, rec.Outcome)
			}
			if rep.Outcome != rec.Outcome {
				t.Fatalf("replay outcome %v, recorded %v", rep.Outcome, rec.Outcome)
			}
		})
	}
}

// serviceSweep is the service-kernel battery: every shape, clean and
// with a planted slow leak, sized so the sweep stays fast.
func serviceSweep() []*kernelgen.ServiceProg {
	return []*kernelgen.ServiceProg{
		{Shape: kernelgen.ShapeHandler, Requests: 96, Workers: 3, Pool: 2, Stages: 2, ChanCap: 1},
		{Shape: kernelgen.ShapeHandler, Requests: 96, Workers: 3, Pool: 2, Stages: 2, ChanCap: 1,
			LeakKind: kernelgen.LeakPoolExhaust, LeakEvery: 16},
		{Shape: kernelgen.ShapeWorkerPool, Requests: 96, Workers: 2, Pool: 2, Stages: 2, ChanCap: 2},
		{Shape: kernelgen.ShapeWorkerPool, Requests: 96, Workers: 2, Pool: 2, Stages: 2, ChanCap: 2,
			LeakKind: kernelgen.LeakHandlerAbandon, LeakEvery: 16},
		{Shape: kernelgen.ShapePipeline, Requests: 96, Workers: 2, Pool: 2, Stages: 3, ChanCap: 1},
		{Shape: kernelgen.ShapePipeline, Requests: 96, Workers: 2, Pool: 2, Stages: 3, ChanCap: 1,
			LeakKind: kernelgen.LeakSendNoRecv, LeakEvery: 16},
	}
}

// perEvent adds the trace.Unbatched marker to a stream, so the scheduler
// delivers every event to it as it is emitted instead of in blocks.
// Event, Close and Finish come from the embedded stream.
type perEvent struct{ detect.Stream }

func (perEvent) Unbatched() {}

// serviceOpts builds the sweep options: full ECT, a detector panel on
// the sink path, delivered per event or in blocks.
func serviceOpts(p *kernelgen.ServiceProg, seed int64, unbatched bool) (sim.Options, []detect.Stream) {
	streams := []detect.Stream{
		detect.Goat{}.NewStream(),
		detect.Leak{Window: 512}.NewStream(),
	}
	sinks := make([]trace.Sink, len(streams))
	for i, s := range streams {
		sinks[i] = s
		if unbatched {
			sinks[i] = perEvent{s}
		}
	}
	return sim.Options{Seed: seed, MaxSteps: p.MinSteps(), Sinks: sinks}, streams
}

// TestServiceKernelDeterminism extends the determinism sweep to the
// service kernels: for three seeds each, the encoded ECT must be
// byte-identical with batched sink emission on and off, every streaming
// detector must return the same verdict in both modes, and a recorded
// schedule must replay without divergence. This is the invariant the
// campaign-throughput batching rides on — flushing sinks in blocks is a
// delivery optimization, never an observable change.
func TestServiceKernelDeterminism(t *testing.T) {
	for _, p := range serviceSweep() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(3); seed <= 11; seed += 4 {
				offOpts, offStreams := serviceOpts(p, seed, true)
				onOpts, onStreams := serviceOpts(p, seed, false)
				rOff := sim.Run(offOpts, p.Main())
				rOn := sim.Run(onOpts, p.Main())
				if rOff.Outcome != rOn.Outcome {
					t.Fatalf("seed %d: outcome differs batch off/on: %v vs %v", seed, rOff.Outcome, rOn.Outcome)
				}
				if err := p.Check(rOff); err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
				var bOff, bOn bytes.Buffer
				if err := rOff.Trace.Encode(&bOff); err != nil {
					t.Fatalf("seed %d: encode: %v", seed, err)
				}
				if err := rOn.Trace.Encode(&bOn); err != nil {
					t.Fatalf("seed %d: encode: %v", seed, err)
				}
				if !bytes.Equal(bOff.Bytes(), bOn.Bytes()) {
					t.Fatalf("seed %d: ECT differs between batch off (%d bytes) and on (%d bytes)",
						seed, bOff.Len(), bOn.Len())
				}
				for i := range offStreams {
					dOff := offStreams[i].Finish(rOff)
					dOn := onStreams[i].Finish(rOn)
					if !reflect.DeepEqual(dOff, dOn) {
						t.Fatalf("seed %d: %s verdict differs batch off/on:\n%+v\n%+v",
							seed, dOff.Tool, dOff, dOn)
					}
				}

				// Record under batched emission, replay, require structural
				// agreement — the debugging workflow must survive batching.
				recOpts := sim.Options{Seed: seed, MaxSteps: p.MinSteps(), Record: true}
				rec := sim.Run(recOpts, p.Main())
				repOpts := sim.Options{Seed: seed, MaxSteps: p.MinSteps(), Replay: rec.Schedule}
				rep := sim.Run(repOpts, p.Main())
				if rep.ReplayDiverged {
					t.Fatalf("seed %d: replay diverged (outcome %v, recorded %v)", seed, rep.Outcome, rec.Outcome)
				}
				if rep.Outcome != rec.Outcome {
					t.Fatalf("seed %d: replay outcome %v, recorded %v", seed, rep.Outcome, rec.Outcome)
				}
			}
		})
	}
}
