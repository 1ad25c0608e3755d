package detect

import (
	"strings"
	"testing"

	"goat/internal/ingest"
	"goat/internal/sim"
	"goat/internal/trace"
)

// leakTrace builds synthetic traces event by event, with the timestamp
// bookkeeping and goroutine-lifecycle boilerplate factored out.
type leakTrace struct {
	tr     *trace.Trace
	ts     int64
	nextID trace.GoID
}

func newLeakTrace() *leakTrace {
	return &leakTrace{tr: trace.New(0), nextID: 2}
}

func (lt *leakTrace) emit(e trace.Event) {
	lt.ts++
	e.Ts = lt.ts
	lt.tr.Append(e)
}

// filler emits one no-op main-goroutine event, advancing the event count.
func (lt *leakTrace) filler() {
	lt.emit(trace.Event{G: 1, Type: trace.EvChanSend, Res: 99, File: "svc.go", Line: 1})
}

// fillTo pads with filler events until `count` events have been emitted.
func (lt *leakTrace) fillTo(count int64) {
	for lt.ts < count {
		lt.filler()
	}
}

// strand creates a goroutine and parks it forever: 3 events
// (create/start/block).
func (lt *leakTrace) strand(reason trace.BlockReason, file string, line int) trace.GoID {
	id := lt.nextID
	lt.nextID++
	lt.emit(trace.Event{G: 1, Type: trace.EvGoCreate, Peer: id, File: "svc.go", Line: 10, Str: "svc.handler"})
	lt.emit(trace.Event{G: id, Type: trace.EvGoStart})
	lt.emit(trace.Event{G: id, Type: trace.EvGoBlock, Aux: int64(reason), File: file, Line: line})
	return id
}

func leakVerdict(t *testing.T, lt *leakTrace, l Leak) Detection {
	t.Helper()
	s := l.NewStream()
	lt.tr.Replay(s)
	return s.Finish(nil)
}

// TestLeakWindowEdgeCases drives the census over the boundary
// arithmetic the detector depends on: staleness at exactly one window,
// bursts landing on boundaries, rates below one strand per window, and
// transient congestion that must never count.
func TestLeakWindowEdgeCases(t *testing.T) {
	const W = 64
	l := Leak{Window: W}

	cases := []struct {
		name        string
		build       func(lt *leakTrace)
		wantVerdict string
		wantFound   bool
		wantDetail  string // substring; "" skips the check
	}{
		{
			// One strand every 1.5 windows: no single window shows much,
			// the trend across 12 windows is unmistakable.
			name: "rate below one per window",
			build: func(lt *leakTrace) {
				for i := int64(0); i < 8; i++ {
					lt.fillTo(i * 3 * W / 2)
					lt.strand(trace.BlockSend, "svc.go", 30)
				}
				lt.fillTo(12 * W)
			},
			// Strand i parks at event 96i+3; boundary m counts those with
			// 96i+3 <= 64(m-1): census 0,1,2,2,3,4,4,5,6,6,7,8 — baseline
			// 1 at window 2, 8 at window 12.
			wantVerdict: "LEAK-7",
			wantFound:   true,
		},
		{
			// Two strands right before every boundary: a strand parked at
			// event kW-1 is not yet stale at boundary k (it has not been
			// parked a full window) and must enter the census exactly at
			// boundary k+1 — off-by-one here either double-counts or
			// drops every burst.
			name: "burst at window boundaries",
			build: func(lt *leakTrace) {
				for k := int64(1); k <= 8; k++ {
					lt.fillTo(k*W - 6) // 2 strands x 3 events land at kW-6..kW-1
					lt.strand(trace.BlockSend, "svc.go", 31)
					lt.strand(trace.BlockSend, "svc.go", 31)
				}
				lt.fillTo(9 * W)
			},
			// c_m = 2(m-1): baseline 2 at window 2, 16 at window 9 — and
			// exactly 2.00 strands/window, proving no burst is counted
			// twice or lost.
			wantVerdict: "LEAK-14",
			wantFound:   true,
			wantDetail:  "+2.00 strands/window",
		},
		{
			// A single park landing exactly on the boundary event: never
			// stale enough for a trend, but still a strand at the end.
			name: "single strand on the boundary event",
			build: func(lt *leakTrace) {
				lt.fillTo(W - 3) // create/start/block occupy events W-2, W-1, W
				lt.strand(trace.BlockSend, "svc.go", 32)
				lt.fillTo(5 * W)
			},
			wantVerdict: "LEAK-1",
			wantFound:   true,
			wantDetail:  "stranded at end",
		},
		{
			// Congestion: parks that always resolve in under a window.
			// The staleness filter keeps every census at zero and the
			// wakes empty the final count.
			name: "transient congestion never counts",
			build: func(lt *leakTrace) {
				var parked []trace.GoID
				for w := int64(0); w < 10; w++ {
					lt.fillTo(w * W)
					for _, id := range parked { // wake last window's parkers
						lt.emit(trace.Event{G: 1, Type: trace.EvGoUnblock, Peer: id})
						lt.emit(trace.Event{G: id, Type: trace.EvGoEnd})
					}
					parked = parked[:0]
					parked = append(parked, lt.strand(trace.BlockSend, "svc.go", 33))
				}
				lt.fillTo(11 * W)
				for _, id := range parked {
					lt.emit(trace.Event{G: 1, Type: trace.EvGoUnblock, Peer: id})
					lt.emit(trace.Event{G: id, Type: trace.EvGoEnd})
				}
			},
			wantVerdict: "OK",
		},
		{
			// A steady pool stranded from the start is the baseline, not
			// a leak trend — and consuming-end workers that were woken
			// are suppressed outright, so a healthy pool reports nothing.
			name: "woken workers are suppressed",
			build: func(lt *leakTrace) {
				for i := 0; i < 4; i++ {
					id := lt.strand(trace.BlockRecv, "svc.go", 34)
					// One job each: wake, then park again forever.
					lt.emit(trace.Event{G: 1, Type: trace.EvGoUnblock, Peer: id})
					lt.emit(trace.Event{G: id, Type: trace.EvChanRecv, Res: 5})
					lt.emit(trace.Event{G: id, Type: trace.EvGoBlock, Aux: int64(trace.BlockRecv), File: "svc.go", Line: 34})
				}
				lt.fillTo(8 * W)
			},
			wantVerdict: "OK",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lt := newLeakTrace()
			tc.build(lt)
			det := leakVerdict(t, lt, l)
			if det.Verdict != tc.wantVerdict || det.Found != tc.wantFound {
				t.Errorf("verdict = %q (found=%v), want %q (found=%v)\ndetail: %s",
					det.Verdict, det.Found, tc.wantVerdict, tc.wantFound, det.Detail)
			}
			if tc.wantDetail != "" && !strings.Contains(det.Detail, tc.wantDetail) {
				t.Errorf("detail %q does not contain %q", det.Detail, tc.wantDetail)
			}
		})
	}
}

// TestLeakParityWithIngest runs the streaming detector over the
// checked-in native captures and checks signature-exact agreement with
// ingest.StrandedGoroutines — the shared-suppression contract: the same
// goroutines, grouped under the same trace.StrandSig identities.
func TestLeakParityWithIngest(t *testing.T) {
	fixtures := []struct {
		path    string
		verdict string
	}{
		{"../ingest/testdata/leakypool.trace", "LEAK-3"},
		{"../ingest/testdata/cleanpool.trace", "OK"},
	}
	for _, fx := range fixtures {
		t.Run(fx.path, func(t *testing.T) {
			run, err := ingest.ParseFile(fx.path)
			if err != nil {
				t.Fatalf("ParseFile: %v", err)
			}
			s := Leak{}.NewStream().(*LeakStream)
			run.Trace.Replay(s)

			// Signature parity, ingest's census vs the stream's.
			want := map[string]int{}
			for _, st := range run.StrandedGoroutines(ingest.StrandedOpts{}) {
				want[st.Signature()]++
			}
			got := map[string]int{}
			for _, sc := range s.FinalStrands() {
				got[sc.Sig.String()] = sc.N
			}
			if len(got) != len(want) {
				t.Fatalf("signature classes: stream %v, ingest %v", got, want)
			}
			for sig, n := range want {
				if got[sig] != n {
					t.Errorf("signature %q: stream %d, ingest %d", sig, got[sig], n)
				}
			}

			det := s.Finish(&sim.Result{Trace: run.Trace})
			if det.Verdict != fx.verdict {
				t.Errorf("verdict = %q, want %q (detail: %s)", det.Verdict, fx.verdict, det.Detail)
			}
		})
	}
}
