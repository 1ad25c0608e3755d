// Package profile is the contention profiling plane: it folds any ECT —
// sim-produced or natively ingested — into pprof-compatible profiles,
// giving every layer of the stack (campaign CLIs, the fabric, the
// ingest pipeline) one shared profile vocabulary.
//
// Three profiles derive from the event stream alone:
//
//   - block: cumulative blocked time by (goroutine root, block site,
//     reason). A park opens a span; the goroutine's next own event, an
//     unblock edge naming it, or the end of the trace closes it. On
//     native windows real durations come from the ingest wall table;
//     sim traces charge logical ticks (reported as nanoseconds, so the
//     relative magnitudes — which is all a virtual clock has — survive
//     the pprof toolchain unchanged).
//   - mutex: the sync-family subset of block spans, re-keyed by the
//     contended resource identity (the correlated ResID from
//     internal/ingest, exact IDs from the virtual runtime). The leaf
//     frame is the resource, so `pprof -top` ranks lock objects, not
//     call sites — contention pinpointing in the BinGo sense.
//   - goroutine: a census of goroutines live at the end of the trace,
//     grouped by identical pseudo-stacks.
//
// A fourth, cpu, is built from the capture's profiling-clock samples
// (ingest.CPUSample) when the traced program ran the CPU profiler
// alongside runtime/trace — those carry real call stacks.
//
// ECT events carry one source location, not a call stack, so profile
// stacks are pseudo-stacks assembled from provenance: the leaf names
// the goroutine root and block reason at the block site, its parent
// names the creating goroutine at the go-statement site. The encoding
// (pprof.go) writes the standard protobuf profile, so `go tool pprof`,
// flamegraph tooling and continuous-profiling UIs consume GoAT output
// directly.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"goat/internal/trace"
)

// Frame is one frame of a profile stack, leaf first in a Sample.
type Frame struct {
	Func string
	File string
	Line int
}

// String renders the frame for folded output.
func (f Frame) String() string {
	if f.File == "" {
		return f.Func
	}
	return fmt.Sprintf("%s %s:%d", f.Func, trace.TrimPath(f.File), f.Line)
}

// Sample is one aggregated profile row: a stack with the number of
// events folded into it and their cumulative value.
type Sample struct {
	Stack []Frame // leaf first
	Count int64   // events aggregated (contentions, goroutines, hits)
	Value int64   // cumulative nanoseconds (0 for pure-count profiles)
}

// Kind names a profile flavor; it selects the pprof sample/period types.
type Kind string

const (
	KindBlock     Kind = "block"
	KindMutex     Kind = "mutex"
	KindGoroutine Kind = "goroutine"
	KindCPU       Kind = "cpu"
)

// Profile is one finished profile: deterministic sample order (value
// descending, then stack), ready for pprof or folded encoding.
type Profile struct {
	Kind     Kind
	Samples  []Sample
	PeriodNs int64 // cpu only: sampling period
	SpanNs   int64 // observed span (duration_nanos of the encoding)
}

// Set is every profile built from one trace.
type Set struct {
	Block     *Profile
	Mutex     *Profile
	Goroutine *Profile
	CPU       *Profile // nil unless the source carried CPU samples
}

// CPUSample is one profiling-clock hit, the shape ingest.CPUSample maps
// to (the package stays source-agnostic: any producer with real stacks
// can feed it).
type CPUSample struct {
	G     trace.GoID
	Stack []Frame // leaf first
}

// DefaultCPUPeriodNs is the runtime CPU profiler's default sampling
// period (100 Hz). Build charges every CPU sample this much.
const DefaultCPUPeriodNs = 10_000_000

// Options configures a build.
type Options struct {
	// Wall aligns index-for-index with the trace's events and holds each
	// event's wall-clock offset in nanoseconds (ingest.Run.Wall). When
	// nil, logical timestamps are charged instead.
	Wall []int64

	// CPUSamples are the capture's profiling-clock hits, if any.
	CPUSamples []CPUSample
}

// gProf tracks one goroutine through the fold.
type gProf struct {
	name       string
	creator    string
	createFile string
	createLine int
	system     bool
	ended      bool

	blocked   bool
	reason    trace.BlockReason
	blockFile string
	blockLine int
	blockRes  trace.ResID
	blockAt   int64 // ns at park
}

// maxKeyFrames is the depth of the pseudo-stacks the fold builds: a
// resource leaf (mutex only), the block or census site, and the
// creation site.
const maxKeyFrames = 3

// stackKey is a pseudo-stack as a comparable value, so a span is charged
// with one map lookup and no formatting.
type stackKey struct {
	n      int
	frames [maxKeyFrames]Frame
}

// builder aggregates samples by folded stack: two stacks whose folded
// renderings are equal are one sample (paths are trimmed when folded, so
// distinct frames can coincide). Each distinct stack is rendered once;
// later additions find their sample through the key it was rendered
// from.
type builder struct {
	byKey  map[stackKey]*entry
	byText map[string]*entry
}

// entry is one sample under construction with its folded rendering, the
// final tie-break of the sample order.
type entry struct {
	Sample
	text string
}

func newBuilder() *builder {
	return &builder{byKey: map[stackKey]*entry{}, byText: map[string]*entry{}}
}

// fold renders a stack the way folded output and the sample order see
// it: frames joined by ";".
func fold(stack []Frame) string {
	var b strings.Builder
	for i, f := range stack {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// add charges one pseudo-stack.
func (b *builder) add(k stackKey, count, value int64) {
	e, ok := b.byKey[k]
	if !ok {
		e = b.entryOf(k.frames[:k.n])
		b.byKey[k] = e
	}
	e.Count += count
	e.Value += value
}

// addStack charges a stack of any depth (CPU samples carry real call
// stacks).
func (b *builder) addStack(stack []Frame, count, value int64) {
	e := b.entryOf(stack)
	e.Count += count
	e.Value += value
}

// entryOf returns the sample a stack folds into, creating it with a copy
// of the stack on first sight.
func (b *builder) entryOf(stack []Frame) *entry {
	text := fold(stack)
	e, ok := b.byText[text]
	if !ok {
		e = &entry{Sample: Sample{Stack: append([]Frame(nil), stack...)}, text: text}
		b.byText[text] = e
	}
	return e
}

// finish produces the deterministic sample order: cumulative value
// descending, count descending, then the rendered stack ascending.
func (b *builder) finish(kind Kind, spanNs int64) *Profile {
	p := &Profile{Kind: kind, SpanNs: spanNs}
	entries := make([]*entry, 0, len(b.byText))
	for _, e := range b.byText {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		si, sj := entries[i], entries[j]
		if si.Value != sj.Value {
			return si.Value > sj.Value
		}
		if si.Count != sj.Count {
			return si.Count > sj.Count
		}
		return si.text < sj.text
	})
	for _, e := range entries {
		p.Samples = append(p.Samples, e.Sample)
	}
	return p
}

// mutexFamily labels the contended-resource leaf of the mutex profile;
// "" excludes the reason from it.
func mutexFamily(r trace.BlockReason) string {
	switch r {
	case trace.BlockMutex, trace.BlockRMutex:
		return "lock"
	case trace.BlockWaitGroup:
		return "wg"
	case trace.BlockCond:
		return "cond"
	case trace.BlockSync:
		return "sync"
	}
	return ""
}

// Build folds a trace into its profile set.
func Build(t *trace.Trace, opts Options) *Set {
	gs := map[trace.GoID]*gProf{}
	gOf := func(id trace.GoID) *gProf {
		g, ok := gs[id]
		if !ok {
			g = &gProf{}
			if id == 1 {
				g.name = "main"
			}
			gs[id] = g
		}
		return g
	}

	var events []trace.Event
	if t != nil {
		events = t.Events
	}
	ns := func(i int) int64 {
		if i < 0 || i >= len(events) {
			return 0
		}
		if opts.Wall != nil && i < len(opts.Wall) {
			return opts.Wall[i]
		}
		return events[i].Ts
	}
	endNs := ns(len(events) - 1)

	block := newBuilder()
	mutex := newBuilder()
	names := newFrameNames()

	// pseudoStack is a goroutine's stack in the block and census
	// profiles: the leaf under its creation site, when it has one.
	pseudoStack := func(g *gProf, leaf Frame) stackKey {
		k := stackKey{n: 1}
		k.frames[0] = leaf
		if g.createFile != "" || g.creator != "" {
			k.frames[1] = Frame{Func: names.createdBy(g.creator), File: g.createFile, Line: g.createLine}
			k.n = 2
		}
		return k
	}
	// siteFrame is the leaf of a parked goroutine.
	siteFrame := func(g *gProf) Frame {
		return Frame{Func: names.site(g.name, g.reason), File: g.blockFile, Line: g.blockLine}
	}

	// endSpan charges a finished park to the block profile and, for
	// sync-family parks with a resource identity, to the mutex profile.
	endSpan := func(g *gProf, now int64) {
		g.blocked = false
		d := now - g.blockAt
		if d < 0 {
			d = 0
		}
		if g.system {
			return
		}
		k := pseudoStack(g, siteFrame(g))
		block.add(k, 1, d)
		if fam := mutexFamily(g.reason); fam != "" && g.blockRes != 0 {
			m := stackKey{n: k.n + 1}
			m.frames[0] = Frame{Func: names.resource(fam, g.blockRes)}
			copy(m.frames[1:], k.frames[:k.n])
			mutex.add(m, 1, d)
		}
	}

	for i := range events {
		e := &events[i]
		switch e.Type {
		case trace.EvGoCreate:
			p := gOf(e.G)
			c := gOf(e.Peer)
			c.name = e.Str
			c.creator = orUnknown(p.name)
			c.createFile, c.createLine = e.File, e.Line
			c.system = e.Aux == 1 || p.system
		case trace.EvGoStart:
			g := gOf(e.G)
			if g.name == "" {
				g.name = e.Str
			}
			if g.createFile == "" && g.creator == "" {
				// Self-introduction (window contract): provenance is the
				// start record itself.
				g.createFile, g.createLine = e.File, e.Line
			}
			if e.Aux == 1 {
				g.system = true
			}
			if g.blocked {
				endSpan(g, ns(i))
			}
		case trace.EvGoBlock:
			g := gOf(e.G)
			if g.blocked {
				endSpan(g, ns(i))
			}
			g.blocked = true
			g.reason = e.BlockReason()
			g.blockFile, g.blockLine = e.File, e.Line
			g.blockRes = e.Res
			g.blockAt = ns(i)
		case trace.EvGoUnblock:
			// The wake ends the peer's park — Go's block profile charges
			// until the wakeup, not until the reschedule.
			if tg, ok := gs[e.Peer]; ok && tg.blocked {
				endSpan(tg, ns(i))
			}
			if g := gOf(e.G); g.blocked {
				endSpan(g, ns(i))
			}
		case trace.EvGoEnd, trace.EvGoPanic:
			g := gOf(e.G)
			if g.blocked {
				endSpan(g, ns(i))
			}
			g.ended = true
		default:
			// Any action by a nominally-blocked goroutine proves it
			// resumed (native windows drop some wake edges).
			if g := gOf(e.G); g.blocked {
				endSpan(g, ns(i))
			}
		}
	}

	// Still-parked goroutines are charged to the end of the window: a
	// stranded sender owns its whole tail, which is exactly what puts
	// planted leaks at the top of the block profile.
	ids := make([]trace.GoID, 0, len(gs))
	for id := range gs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	census := newBuilder()
	for _, id := range ids {
		g := gs[id]
		if g.blocked {
			endSpan(g, endNs)
			g.blocked = true // remains parked for the census below
		}
		if g.ended || g.system {
			continue
		}
		leaf := Frame{Func: g.name, File: g.createFile, Line: g.createLine}
		if g.blocked {
			leaf = siteFrame(g)
		}
		census.add(pseudoStack(g, leaf), 1, 0)
	}

	set := &Set{
		Block:     block.finish(KindBlock, endNs),
		Mutex:     mutex.finish(KindMutex, endNs),
		Goroutine: census.finish(KindGoroutine, endNs),
	}
	if len(opts.CPUSamples) > 0 {
		cpu := newBuilder()
		for _, s := range opts.CPUSamples {
			if len(s.Stack) == 0 {
				continue
			}
			cpu.addStack(s.Stack, 1, DefaultCPUPeriodNs)
		}
		set.CPU = cpu.finish(KindCPU, endNs)
		set.CPU.PeriodNs = DefaultCPUPeriodNs
	}
	return set
}

// ByKind returns the requested profile (nil when absent).
func (s *Set) ByKind(k Kind) *Profile {
	switch k {
	case KindBlock:
		return s.Block
	case KindMutex:
		return s.Mutex
	case KindGoroutine:
		return s.Goroutine
	case KindCPU:
		return s.CPU
	}
	return nil
}

// frameNames memoizes the synthesized frame names, so each distinct name
// is formatted once per fold rather than once per span.
type frameNames struct {
	sites     map[siteName]string
	creators  map[string]string
	resources map[resourceName]string
}

func newFrameNames() *frameNames {
	return &frameNames{
		sites:     map[siteName]string{},
		creators:  map[string]string{},
		resources: map[resourceName]string{},
	}
}

type siteName struct {
	name   string
	reason trace.BlockReason
}

type resourceName struct {
	family string
	res    trace.ResID
}

// site names a parked goroutine's leaf: "<root> [<reason>]".
func (n *frameNames) site(name string, reason trace.BlockReason) string {
	k := siteName{name, reason}
	s, ok := n.sites[k]
	if !ok {
		s = fmt.Sprintf("%s [%s]", name, reason)
		n.sites[k] = s
	}
	return s
}

// createdBy names a creation-site frame.
func (n *frameNames) createdBy(creator string) string {
	s, ok := n.creators[creator]
	if !ok {
		s = "created by " + orUnknown(creator)
		n.creators[creator] = s
	}
	return s
}

// resource names a mutex-profile leaf: "<family>#<ResID>".
func (n *frameNames) resource(family string, res trace.ResID) string {
	k := resourceName{family, res}
	s, ok := n.resources[k]
	if !ok {
		s = fmt.Sprintf("%s#%d", family, res)
		n.resources[k] = s
	}
	return s
}

func orUnknown(name string) string {
	if name == "" {
		return "unknown"
	}
	return name
}

// Top renders the first n samples as a one-line-per-entry summary, the
// human-readable companion of the binary encodings.
func (p *Profile) Top(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s profile: %d stack(s)\n", p.Kind, len(p.Samples))
	for i, s := range p.Samples {
		if n > 0 && i >= n {
			fmt.Fprintf(&b, "  ... %d more\n", len(p.Samples)-n)
			break
		}
		if p.Kind == KindGoroutine {
			fmt.Fprintf(&b, "  %6d  %s\n", s.Count, s.Stack[0])
		} else {
			fmt.Fprintf(&b, "  %12.3fms x%-5d %s\n", float64(s.Value)/1e6, s.Count, s.Stack[0])
		}
	}
	return b.String()
}
