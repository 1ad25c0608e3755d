package bench

import (
	"fmt"
	"time"

	"goat/internal/detect"
	"goat/internal/kernelgen"
	"goat/internal/profile"
	"goat/internal/sim"
	"goat/internal/trace"
)

// soak runs the service soak pair: a leaky worker-pool service and its
// clean twin, 100k requests each, with the leak detector, a flight
// ring and the latency sink on the batched sink path. A few very long
// runs, so per-event emit and sink cost dominate and per-run set-up is
// negligible: the opposite of table4.
type soak struct {
	seed     int64
	requests int
}

func newSoak(cfg Config) *soak {
	s := &soak{seed: cfg.Seed, requests: 100000}
	if cfg.Smoke {
		s.requests = 5000
	}
	return s
}

// threads is 1: the simulator is one scheduler loop. At 2 the Go
// runtime moves its host goroutines between two threads, which makes a
// pair slower and its time vary more (see README.md).
func (*soak) threads() int { return 1 }

func (s *soak) setup() error { return nil }

func (s *soak) op(i int, tr *tracer) outcome {
	seed := s.seed + int64(i)
	var rep *kernelgen.SoakReport
	var err error
	t0 := time.Now()
	if tr == nil {
		rep = kernelgen.RunServiceSoak(s.requests, seed)
	} else if rep, err = s.traced(seed, tr); err != nil {
		return outcome{err: err}
	}
	o := outcome{wall: time.Since(t0), work: 2 * int64(s.requests)}
	o.tasks = []time.Duration{o.wall}
	o.print = soakPrint(rep)
	o.err = rep.OK()
	if tr != nil {
		tr.add("wall.ns", float64(o.wall))
	}
	return o
}

// soakPrint renders everything a soak pair outputs.
func soakPrint(r *kernelgen.SoakReport) string {
	run := func(d detect.Detection, res *sim.Result, ring *trace.RingSink, lat *profile.LatencySink) string {
		p50, p95, p99 := lat.Percentiles()
		last := ring.Snapshot().Events
		return fmt.Sprintf("%v %q %q steps=%d leaked=%d ring=%d/%d last=%v lat=%d/%d/%d n=%d",
			d.Found, d.Verdict, d.Detail, res.Steps, len(res.Leaked),
			ring.Len(), ring.Dropped(), last[len(last)-1], p50, p95, p99, lat.Count())
	}
	return run(r.LeakyVerdict, r.LeakyRun, r.LeakyRing, r.LeakyLatency) + " | " +
		run(r.CleanVerdict, r.CleanRun, r.CleanRing, r.CleanLatency)
}

// traced is kernelgen.RunServiceSoak with every sink wrapped: the same
// programs, options and sinks in the same order. The traced-vs-untraced
// comparison of every traced operation keeps the two in step.
func (s *soak) traced(seed int64, tr *tracer) (*kernelgen.SoakReport, error) {
	leaky := &kernelgen.ServiceProg{
		Shape: kernelgen.ShapeWorkerPool, Requests: s.requests, Workers: 4, Pool: 2, Stages: 2, ChanCap: 4,
		LeakKind: kernelgen.LeakSendNoRecv, LeakEvery: 1000,
		Timeline: true,
	}
	rep := &kernelgen.SoakReport{Requests: s.requests}
	var leakAcc, ringAcc, latAcc layerAcc
	var runNs int64
	run := func(p *kernelgen.ServiceProg) (d detect.Detection, r *sim.Result, ring *trace.RingSink, lat *profile.LatencySink, err error) {
		ring = trace.NewRingSink(4096)
		lat = profile.NewLatencySink()
		leak, err := wrapStream(detect.Leak{}.NewStream(), &leakAcc)
		if err != nil {
			return d, nil, nil, nil, err
		}
		ringW, err := wrapSink(ring, &ringAcc)
		if err != nil {
			return d, nil, nil, nil, err
		}
		latW, err := wrapSink(lat, &latAcc)
		if err != nil {
			return d, nil, nil, nil, err
		}
		t := clock()
		r = sim.Run(sim.Options{
			Seed: seed, MaxSteps: p.MinSteps(), NoTrace: true,
			Sinks: []trace.Sink{leak, ringW, latW},
		}, p.Main())
		runNs += since(t)
		tr.add("steps", float64(r.Steps))
		return leak.Finish(r), r, ring, lat, nil
	}
	start := time.Now()
	var err error
	if rep.LeakyVerdict, rep.LeakyRun, rep.LeakyRing, rep.LeakyLatency, err = run(leaky); err != nil {
		return nil, err
	}
	if rep.CleanVerdict, rep.CleanRun, rep.CleanRing, rep.CleanLatency, err = run(leaky.Clean()); err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)

	sinkNs := leakAcc.ns.Load() + ringAcc.ns.Load() + latAcc.ns.Load()
	tr.add("runs", 2)
	tr.add("requests", float64(2*s.requests))
	tr.add("events", float64(ringAcc.events.Load()))
	tr.add("calls", float64(leakAcc.calls.Load()))
	tr.add("sim.ns", float64(runNs-sinkNs))
	tr.add("leak.ns", float64(leakAcc.ns.Load()))
	tr.add("ring.ns", float64(ringAcc.ns.Load()))
	tr.add("lat.ns", float64(latAcc.ns.Load()))
	tr.add("finish.ns", float64(leakAcc.finishNs.Load()))
	tr.add("span.ns", float64(runNs+leakAcc.finishNs.Load()))
	return rep, nil
}

func (s *soak) layers(tr *tracer) map[string]float64 {
	return map[string]float64{
		"engine.runs":                  tr.perOp("runs"),
		"sim.events_per_run":           tr.per("events", "runs"),
		"sim.ns_per_event":             tr.per("sim.ns", "events"),
		"sim.steps_per_request":        tr.per("steps", "requests"),
		"trace.batches_per_run":        tr.per("calls", "runs"),
		"trace.events_per_request":     tr.per("events", "requests"),
		"trace.batches_per_request":    tr.per("calls", "requests"),
		"trace.ring.ns_per_event":      tr.per("ring.ns", "events"),
		"detect.leak.ns_per_event":     tr.per("leak.ns", "events"),
		"detect.finish_ns_per_run":     tr.per("finish.ns", "runs"),
		"profile.latency.ns_per_event": tr.per("lat.ns", "events"),
	}
}
