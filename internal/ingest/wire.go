// Native runtime/trace wire-format parsing.
//
// This file reads the Go execution trace format (the go122/go123 wire
// encoding written by runtime/trace since Go 1.22) with only the
// fidelity the concurrency analyses need: the per-M batch structure,
// the per-generation string and stack tables, the tick frequency, and
// every timed event with its arguments. It deliberately does not
// implement the full ordering-validation machinery of the upstream
// parser — the converter (convert.go) re-derives the total order from
// timestamps, which is sufficient for blocking analysis and keeps this
// reader dependency-free.
package ingest

import (
	"bytes"
	"fmt"
	"io"
)

// Event type bytes of the go122/go123 wire format, in the upstream
// numbering (internal/trace/event/go122). Only the events the converter
// interprets are named; everything else is skipped by spec arity.
const (
	wevNone            = 0
	wevEventBatch      = 1
	wevStacks          = 2
	wevStack           = 3
	wevStrings         = 4
	wevString          = 5
	wevCPUSamples      = 6
	wevCPUSample       = 7
	wevFrequency       = 8
	wevProcsChange     = 9
	wevProcStart       = 10
	wevProcStop        = 11
	wevProcSteal       = 12
	wevProcStatus      = 13
	wevGoCreate        = 14
	wevGoCreateSyscall = 15
	wevGoStart         = 16
	wevGoDestroy       = 17
	wevGoDestroySysc   = 18
	wevGoStop          = 19
	wevGoBlock         = 20
	wevGoUnblock       = 21
	wevGoSyscallBegin  = 22
	wevGoSyscallEnd    = 23
	wevGoSyscallEndBl  = 24
	wevGoStatus        = 25
	wevSTWBegin        = 26
	wevSTWEnd          = 27
	wevGCActive        = 28
	wevGCBegin         = 29
	wevGCEnd           = 30
	wevGCSweepActive   = 31
	wevGCSweepBegin    = 32
	wevGCSweepEnd      = 33
	wevGCMarkAssistAct = 34
	wevGCMarkAssistBeg = 35
	wevGCMarkAssistEnd = 36
	wevHeapAlloc       = 37
	wevHeapGoal        = 38
	wevGoLabel         = 39
	wevUserTaskBegin   = 40
	wevUserTaskEnd     = 41
	wevUserRegionBegin = 42
	wevUserRegionEnd   = 43
	wevUserLog         = 44
	wevGoSwitch        = 45
	wevGoSwitchDestroy = 46
	wevGoCreateBlocked = 47
	wevGoStatusStack   = 48
	wevExperimentBatch = 49
	wevMax             = 50
)

// wireSpec describes how to read one event: its uvarint argument count
// and whether it carries a stack payload (frames) or a data payload
// (length-prefixed bytes). Mirrors the upstream go122 specs table.
type wireSpec struct {
	args    int
	isStack bool
	hasData bool
	timed   bool // first arg is a dt relative to the batch cursor
}

var wireSpecs = [wevMax]wireSpec{
	wevEventBatch:      {args: 4},
	wevStacks:          {},
	wevStack:           {args: 2, isStack: true},
	wevStrings:         {},
	wevString:          {args: 1, hasData: true},
	wevCPUSamples:      {},
	wevCPUSample:       {args: 5},
	wevFrequency:       {args: 1},
	wevProcsChange:     {args: 3, timed: true},
	wevProcStart:       {args: 3, timed: true},
	wevProcStop:        {args: 1, timed: true},
	wevProcSteal:       {args: 4, timed: true},
	wevProcStatus:      {args: 3, timed: true},
	wevGoCreate:        {args: 4, timed: true},
	wevGoCreateSyscall: {args: 2, timed: true},
	wevGoStart:         {args: 3, timed: true},
	wevGoDestroy:       {args: 1, timed: true},
	wevGoDestroySysc:   {args: 1, timed: true},
	wevGoStop:          {args: 3, timed: true},
	wevGoBlock:         {args: 3, timed: true},
	wevGoUnblock:       {args: 4, timed: true},
	wevGoSyscallBegin:  {args: 3, timed: true},
	wevGoSyscallEnd:    {args: 1, timed: true},
	wevGoSyscallEndBl:  {args: 1, timed: true},
	wevGoStatus:        {args: 4, timed: true},
	wevSTWBegin:        {args: 3, timed: true},
	wevSTWEnd:          {args: 1, timed: true},
	wevGCActive:        {args: 2, timed: true},
	wevGCBegin:         {args: 3, timed: true},
	wevGCEnd:           {args: 2, timed: true},
	wevGCSweepActive:   {args: 2, timed: true},
	wevGCSweepBegin:    {args: 2, timed: true},
	wevGCSweepEnd:      {args: 3, timed: true},
	wevGCMarkAssistAct: {args: 2, timed: true},
	wevGCMarkAssistBeg: {args: 2, timed: true},
	wevGCMarkAssistEnd: {args: 1, timed: true},
	wevHeapAlloc:       {args: 2, timed: true},
	wevHeapGoal:        {args: 2, timed: true},
	wevGoLabel:         {args: 2, timed: true},
	wevUserTaskBegin:   {args: 5, timed: true},
	wevUserTaskEnd:     {args: 3, timed: true},
	wevUserRegionBegin: {args: 4, timed: true},
	wevUserRegionEnd:   {args: 4, timed: true},
	wevUserLog:         {args: 5, timed: true},
	wevGoSwitch:        {args: 3, timed: true},
	wevGoSwitchDestroy: {args: 3, timed: true},
	wevGoCreateBlocked: {args: 4, timed: true},
	wevGoStatusStack:   {args: 5, timed: true},
	wevExperimentBatch: {args: 4, hasData: true},
}

// wireFrame is one stack frame: PC plus string-table references into
// the frame's generation.
type wireFrame struct {
	pc     uint64
	funcID uint64
	fileID uint64
	line   uint64
}

// maxTimedArgs is the largest argument count of a timed event after its
// dt: wireEvent stores the arguments inline so no event allocates.
const maxTimedArgs = 4

// wireEvent is one timed event attributed to its batch: generation, M,
// absolute timestamp in ticks, and the raw arguments after the dt.
// Events are stored in file order; their index in wireTrace.events is
// the tie-break of the converter's timestamp sort.
type wireEvent struct {
	ts   uint64 // absolute ticks
	m    uint64
	args [maxTimedArgs]uint64 // spec args minus dt, zero-padded
	gen  uint32               // index into wireTrace.gens
	typ  byte

	// Filled by the converter's attribution pass (convert.go): the
	// goroutine running on the M when the event happened, and the
	// goroutine named by args[0] for the event types that name one, as
	// indices into converter.gs; -1 when there is none.
	g, target int32
}

// generation groups one generation's tables.
type generation struct {
	strings map[uint64]string
	stacks  map[uint64][]wireFrame

	// resolved caches each stack the converter has looked up (convert.go).
	resolved map[uint64]*stackInfo
}

// wireCPUSample is one profiling-clock sample as written into the
// trace's CPU-sample batches: unlike regular events its timestamp is
// absolute (not a batch-relative dt) and it names its goroutine
// explicitly rather than relying on M attribution.
type wireCPUSample struct {
	gen   uint32 // index into wireTrace.gens
	ts    uint64 // absolute ticks
	m     uint64
	p     uint64
	g     uint64
	stack uint64
}

// wireTrace is the parsed file: every timed event plus the
// per-generation tables needed to resolve them.
type wireTrace struct {
	version    int // 22 or 23 (the "go 1.N trace" header)
	freq       float64
	events     []wireEvent
	cpuSamples []wireCPUSample
	gens       []*generation     // in order of first appearance
	genIndex   map[uint64]uint32 // generation number → index into gens
	typeCount  [wevMax]int       // timed events per type
}

// gen returns the index of generation id, creating its tables on first
// use.
func (w *wireTrace) gen(id uint64) uint32 {
	i, ok := w.genIndex[id]
	if !ok {
		i = uint32(len(w.gens))
		w.genIndex[id] = i
		w.gens = append(w.gens, &generation{
			strings:  map[uint64]string{},
			stacks:   map[uint64][]wireFrame{},
			resolved: map[uint64]*stackInfo{},
		})
	}
	return i
}

// maxWireEvents bounds parsing so a corrupt size field cannot allocate
// unboundedly: 64M timed events is far beyond any fixture or CI trace.
const maxWireEvents = 64 << 20

// maxStackFrames bounds one stack record.
const maxStackFrames = 1024

// readInput reads all of r. A reader that knows its length (bytes and
// strings readers) is read into a buffer of exactly that size.
func readInput(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // room for the final EOF read
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("ingest: reading trace: %w", err)
	}
	return buf.Bytes(), nil
}

// parseWire reads a complete native execution trace held in memory.
// Every allocation is bounded by the bytes actually present: payloads
// and stack tables are checked against the remaining input before they
// are materialized, and the event slice is sized by a counting pre-pass.
func parseWire(data []byte) (*wireTrace, error) {
	hr := bytes.NewReader(data)
	var version int
	if _, err := fmt.Fscanf(hr, "go 1.%d trace\x00\x00\x00", &version); err != nil {
		return nil, fmt.Errorf("ingest: not a Go execution trace (bad header): %w", err)
	}
	if version != 22 && version != 23 {
		return nil, fmt.Errorf("ingest: unsupported trace version go 1.%d (want 1.22 or 1.23)", version)
	}
	br := wireReader{b: data, off: len(data) - hr.Len()}
	w := &wireTrace{version: version, genIndex: map[uint64]uint32{}}
	w.events = make([]wireEvent, 0, min(countTimed(br), maxWireEvents))

	// Batch cursor: the current batch's generation and M, and the
	// cumulative timestamp of the last timed event read from it. Tables
	// met before any batch header belong to generation 0.
	curGen := w.gen(0)
	var curM, lastTs uint64
	inBatch := false
	seq := 0

	for br.off < len(br.b) {
		typ := br.b[br.off]
		br.off++
		if typ == wevNone || int(typ) >= wevMax {
			return nil, fmt.Errorf("ingest: invalid event type byte %d at event %d", typ, seq)
		}
		spec := wireSpecs[typ]
		var args [maxTimedArgs + 1]uint64
		for i := 0; i < spec.args; i++ {
			var err error
			if args[i], err = br.uvarint(); err != nil {
				return nil, fmt.Errorf("ingest: event %d (type %d) arg %d: %w", seq, typ, i, err)
			}
		}
		switch typ {
		case wevEventBatch:
			// [gen, m, time, size]
			curGen, curM, lastTs = w.gen(args[0]), args[1], args[2]
			inBatch = true
		case wevExperimentBatch:
			// [exp, gen, m, time] + data payload: opaque, skip.
			if _, err := br.data(); err != nil {
				return nil, fmt.Errorf("ingest: experimental batch payload: %w", err)
			}
		case wevFrequency:
			w.freq = 1e9 / float64(args[0]) // ticks/sec → ns per tick
		case wevString:
			// [id] + data payload.
			data, err := br.data()
			if err != nil {
				return nil, fmt.Errorf("ingest: string %d payload: %w", args[0], err)
			}
			w.gens[curGen].strings[args[0]] = string(data)
		case wevCPUSample:
			// [time, m, p, g, stack]: absolute timestamp, carried in a
			// dedicated CPU-sample batch of the enclosing generation.
			if len(w.cpuSamples) < maxWireEvents {
				w.cpuSamples = append(w.cpuSamples, wireCPUSample{
					gen: curGen, ts: args[0], m: args[1], p: args[2], g: args[3], stack: args[4],
				})
			}
		case wevStack:
			// [id, nframes] + nframes × {pc, funcID, fileID, line}.
			n := args[1]
			if n > maxStackFrames || n*4 > uint64(len(br.b)-br.off) {
				return nil, fmt.Errorf("ingest: stack %d has implausible frame count %d", args[0], n)
			}
			frames := make([]wireFrame, n)
			for i := range frames {
				var f [4]uint64
				for j := range f {
					var err error
					if f[j], err = br.uvarint(); err != nil {
						return nil, fmt.Errorf("ingest: stack %d frame %d: %w", args[0], i, err)
					}
				}
				frames[i] = wireFrame{pc: f[0], funcID: f[1], fileID: f[2], line: f[3]}
			}
			w.gens[curGen].stacks[args[0]] = frames
		default:
			if !spec.timed {
				break // section headers (Stacks/Strings/CPUSamples)
			}
			if !inBatch {
				return nil, fmt.Errorf("ingest: timed event (type %d) outside any batch", typ)
			}
			lastTs += args[0] // dt accumulates along the batch
			if len(w.events) >= maxWireEvents {
				return nil, fmt.Errorf("ingest: more than %d timed events; refusing", maxWireEvents)
			}
			ev := wireEvent{gen: curGen, m: curM, ts: lastTs, typ: typ}
			copy(ev.args[:], args[1:])
			w.events = append(w.events, ev)
			w.typeCount[typ]++
		}
		seq++
	}
	if w.freq == 0 {
		return nil, fmt.Errorf("ingest: trace carries no frequency event")
	}
	if len(w.events) == 0 {
		return nil, fmt.Errorf("ingest: trace carries no timed events")
	}
	return w, nil
}

// countTimed returns how many timed events parseWire will store, at
// most: it walks the same record structure without decoding arguments it
// does not need, and stops at the first truncated record.
func countTimed(br wireReader) int {
	n := 0
	for br.off < len(br.b) {
		typ := br.b[br.off]
		br.off++
		if typ == wevNone || int(typ) >= wevMax {
			return n
		}
		spec := wireSpecs[typ]
		var nframes uint64
		for i := 0; i < spec.args; i++ {
			if spec.isStack && i == 1 {
				v, err := br.uvarint()
				if err != nil || v > maxStackFrames {
					return n
				}
				nframes = v
			} else if !br.skipUvarint() {
				return n
			}
		}
		switch {
		case spec.hasData:
			if _, err := br.data(); err != nil {
				return n
			}
		case spec.isStack:
			for i := uint64(0); i < 4*nframes; i++ {
				if !br.skipUvarint() {
					return n
				}
			}
		case spec.timed:
			n++
		}
	}
	return n
}

// wireReader decodes the record stream of an in-memory trace.
type wireReader struct {
	b   []byte
	off int
}

// uvarint is binary.Uvarint with the wire parser's error vocabulary.
func (r *wireReader) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if r.off >= len(r.b) {
			return 0, io.ErrUnexpectedEOF
		}
		b := r.b[r.off]
		r.off++
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, fmt.Errorf("uvarint overflows 64 bits")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			return 0, fmt.Errorf("uvarint overflows 64 bits")
		}
	}
}

// skipUvarint steps over one uvarint, reporting whether it was complete.
func (r *wireReader) skipUvarint() bool {
	for r.off < len(r.b) {
		b := r.b[r.off]
		r.off++
		if b < 0x80 {
			return true
		}
	}
	return false
}

// data returns a length-prefixed payload as a view into the input, after
// checking that the input holds all of it.
func (r *wireReader) data() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("payload of %d bytes overruns the input (%d left): %w", n, len(r.b)-r.off, io.ErrUnexpectedEOF)
	}
	d := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return d, nil
}

// frameInfo is a resolved stack frame.
type frameInfo struct {
	fn   string
	file string
	line int
}

// resolveStack maps a stack ID to resolved frames, leaf first. Stack 0
// means "no stack".
func (w *wireTrace) resolveStack(gen uint32, id uint64) []frameInfo {
	if id == 0 {
		return nil
	}
	g := w.gens[gen]
	frames := g.stacks[id]
	out := make([]frameInfo, 0, len(frames))
	for _, f := range frames {
		out = append(out, frameInfo{
			fn:   g.strings[f.funcID],
			file: g.strings[f.fileID],
			line: int(f.line),
		})
	}
	return out
}

// str resolves a string-table reference.
func (w *wireTrace) str(gen uint32, id uint64) string {
	return w.gens[gen].strings[id]
}
