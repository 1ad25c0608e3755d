package sim

import (
	"reflect"
	"testing"

	"goat/internal/trace"
)

func streamProg(g *G) {
	g.Go("child", func(c *G) {
		c.Yield()
	})
	g.Yield()
	g.Yield()
}

func TestSinkObservesBufferedStream(t *testing.T) {
	ref := Run(quiet(), streamProg)
	sink := trace.New(0)
	opts := quiet()
	opts.NoTrace = true
	opts.Sinks = []trace.Sink{sink}
	r := Run(opts, streamProg)
	if r.Trace != nil {
		t.Fatal("NoTrace run still buffered a trace")
	}
	if !reflect.DeepEqual(sink.Events, ref.Trace.Events) {
		t.Fatalf("sink stream differs from buffered trace:\n%v\nvs\n%v", sink.Events, ref.Trace.Events)
	}
}

func TestPooledECTReuse(t *testing.T) {
	buf := trace.New(0)
	opts := quiet()
	opts.ECT = buf
	r1 := Run(opts, streamProg)
	if r1.Trace != buf {
		t.Fatal("run did not record into the provided buffer")
	}
	ref := append([]trace.Event{}, r1.Trace.Events...)

	r2 := Run(opts, streamProg)
	if r2.Trace != buf {
		t.Fatal("second run did not record into the reused buffer")
	}
	if !reflect.DeepEqual(r2.Trace.Events, ref) {
		t.Fatal("reused-buffer run differs from the first run")
	}
}

func TestPooledECTIgnoredWhenNoTrace(t *testing.T) {
	opts := quiet()
	opts.NoTrace = true
	opts.ECT = trace.New(0)
	r := Run(opts, streamProg)
	if r.Trace != nil {
		t.Fatal("NoTrace must win over a provided ECT buffer")
	}
}
