package bench

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"io"
	"runtime"
	"time"

	"goat/internal/ingest"
	"goat/internal/profile"
	"goat/internal/trace"
)

// Runtime/trace captures of the nativeload program (see
// nativeload/main.go for how to record them): the workload's input, and
// a 2000-job recording for smoke runs.
var (
	//go:embed testdata/nativeload.trace.gz
	nativeCapture []byte
	//go:embed testdata/nativeload-smoke.trace.gz
	smokeCapture []byte
)

// Stranded senders in each capture: one per 200 jobs.
const (
	captureStrands      = 250
	smokeCaptureStrands = 10
)

// capture ingests a real binary's execution trace: parse the native
// capture, report its stranded goroutines, fold it into profiles, and
// round-trip it through the ECT codec. It bypasses the simulator and the
// detectors entirely. The input is fixed, so the seed is ignored.
type capture struct {
	gz      []byte
	strands int
	raw     []byte
	ref     []byte // the first operation's ECT: every later one must match it
}

func newCapture(cfg Config) *capture {
	if cfg.Smoke {
		return &capture{gz: smokeCapture, strands: smokeCaptureStrands}
	}
	return &capture{gz: nativeCapture, strands: captureStrands}
}

// threads is 2: one parse, with the garbage collector's concurrent
// marking on the second thread, as in any Go program ingesting a
// capture.
func (*capture) threads() int { return 2 }

func (c *capture) setup() error {
	zr, err := gzip.NewReader(bytes.NewReader(c.gz))
	if err != nil {
		return fmt.Errorf("capture fixture: %w", err)
	}
	if c.raw, err = io.ReadAll(zr); err != nil {
		return fmt.Errorf("capture fixture: %w", err)
	}
	return nil
}

func (c *capture) op(_ int, tr *tracer) outcome {
	var ms runtime.MemStats
	alloc := func() uint64 {
		if tr == nil {
			return 0
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	var ect bytes.Buffer
	t0 := time.Now()
	a0 := alloc()
	s0 := clock()
	run, err := ingest.Parse(bytes.NewReader(c.raw))
	s1 := clock()
	a1 := alloc()
	if err != nil {
		return outcome{err: fmt.Errorf("parse: %w", err)}
	}
	stranded := run.StrandedGoroutines(ingest.StrandedOpts{})
	s2 := clock()
	set := profile.Build(run.Trace, profile.Options{Wall: run.Wall})
	s3 := clock()
	if err := run.Trace.Encode(&ect); err != nil {
		return outcome{err: fmt.Errorf("encode: %w", err)}
	}
	s4 := clock()
	a4 := alloc()
	s4d := clock()
	back, err := trace.Decode(bytes.NewReader(ect.Bytes()))
	s5 := clock()
	a5 := alloc()
	o := outcome{wall: time.Since(t0), work: int64(len(c.raw))}
	if err != nil {
		return outcome{err: fmt.Errorf("decode: %w", err)}
	}
	o.tasks = []time.Duration{time.Duration(s2 - s0)}
	events := run.Trace.Len()
	top := set.ByKind(profile.KindBlock).Top(1)
	o.print = fmt.Sprintf("events=%d strands=%d ect=%x block-top=%q", events, len(stranded), sha256.Sum256(ect.Bytes()), top)

	var again bytes.Buffer
	switch {
	case len(stranded) != c.strands:
		o.err = fmt.Errorf("%d stranded goroutines, want %d", len(stranded), c.strands)
	case back.Encode(&again) != nil || !bytes.Equal(again.Bytes(), ect.Bytes()):
		o.err = fmt.Errorf("decoded ECT does not re-encode to the same %d bytes", ect.Len())
	case c.ref != nil && !bytes.Equal(c.ref, ect.Bytes()):
		o.err = fmt.Errorf("ECT differs from the first operation's")
	}
	if c.ref == nil {
		c.ref = append([]byte(nil), ect.Bytes()...)
	}
	if tr != nil {
		tr.add("bytes", float64(len(c.raw)))
		tr.add("events", float64(events))
		tr.add("ect.bytes", float64(ect.Len()))
		tr.add("parse.ns", float64(s1-s0))
		tr.add("parse.alloc", float64(a1-a0))
		tr.add("stranded.ns", float64(s2-s1))
		tr.add("profile.ns", float64(s3-s2))
		tr.add("encode.ns", float64(s4-s3))
		tr.add("decode.ns", float64(s5-s4d))
		tr.add("decode.alloc", float64(a5-a4))
		tr.add("span.ns", float64(s4-s0+s5-s4d))
		tr.add("wall.ns", float64(o.wall))
	}
	return o
}

func (c *capture) layers(tr *tracer) map[string]float64 {
	return map[string]float64{
		"ingest.parse_ns_per_byte":           tr.per("parse.ns", "bytes"),
		"ingest.parse_alloc_bytes_per_byte":  tr.per("parse.alloc", "bytes"),
		"ingest.events_per_mb":               tr.per("events", "bytes") * 1e6,
		"ingest.stranded_ms":                 tr.perOp("stranded.ns") / 1e6,
		"profile.build_ns_per_event":         tr.per("profile.ns", "events"),
		"trace.encode_ns_per_event":          tr.per("encode.ns", "events"),
		"trace.decode_ns_per_event":          tr.per("decode.ns", "events"),
		"trace.ect_bytes_per_event":          tr.per("ect.bytes", "events"),
		"trace.decode_alloc_bytes_per_event": tr.per("decode.alloc", "events"),
	}
}
