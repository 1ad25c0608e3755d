package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic "GOATECT1" (8 bytes)
//	uint64 event count
//	per event: varint-encoded fields in a fixed order, strings as
//	(uvarint length, bytes).
//
// Traces whose producer is not the virtual runtime carry a source
// record, versioned by a second magic:
//
//	magic "GOATECT2" (8 bytes)
//	source name (uvarint length, bytes), source caps (uvarint)
//	uint64 event count + events as in GOATECT1
//
// Virtual-runtime traces keep encoding byte-identically to the original
// format: the source record is only written when there is one to write.
//
// The format is self-contained and versioned by the magic string.

const (
	magic   = "GOATECT1"
	magicV2 = "GOATECT2"
)

// Encode writes the trace to w in the binary ECT format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	head := magic
	if !t.Source.IsZero() && t.Source != SimSource {
		head = magicV2
	}
	if _, err := bw.WriteString(head); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putString := func(s string) error {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if head == magicV2 {
		if err := putString(t.Source.Name); err != nil {
			return err
		}
		if err := putUvarint(uint64(t.Source.Caps)); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(t.Events))); err != nil {
		return err
	}
	for _, e := range t.Events {
		blocked := uint64(0)
		if e.Blocked {
			blocked = 1
		}
		for _, step := range []error{
			putVarint(e.Ts),
			putVarint(int64(e.G)),
			putUvarint(uint64(e.Type)),
			putString(e.File),
			putVarint(int64(e.Line)),
			putUvarint(uint64(e.Res)),
			putVarint(int64(e.Peer)),
			putVarint(e.Aux),
			putUvarint(blocked),
			putString(e.Str),
		} {
			if step != nil {
				return step
			}
		}
	}
	return bw.Flush()
}

// minEventBytes is the shortest encoding of one event: ten fields of at
// least one byte each.
const minEventBytes = 10

// maxStringLen bounds one decoded string.
const maxStringLen = 1 << 24

// Decode reads a trace previously written by Encode. Beyond the wire
// format it enforces the goroutine-introduction contract: every event
// must belong to a goroutine that already appeared in a GoCreate (as
// the child) or introduced itself with its own GoStart — a stream
// violating it would silently build a partial goroutine tree, so it is
// rejected with a clear error instead.
//
// Allocation follows the bytes actually read, never a length or count
// the input merely declares: strings are materialized only once their
// bytes have arrived (and are interned, so the few distinct file names
// and payloads of a trace are allocated once), and the event slice
// starts at what the input is known to hold, growing 2× up to the
// declared count.
func Decode(r io.Reader) (*Trace, error) {
	d := &decoder{r: r, buf: make([]byte, decodeBuf), strs: map[string]string{}}
	if !d.need(len(magic)) {
		return nil, fmt.Errorf("trace: reading header: %w", d.eof())
	}
	head := string(d.buf[d.pos : d.pos+len(magic)])
	d.pos += len(magic)
	if head != magic && head != magicV2 {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	var src SourceInfo
	if head == magicV2 {
		name, err := d.string()
		if err != nil {
			return nil, fmt.Errorf("trace: reading source name: %w", err)
		}
		caps, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: reading source caps: %w", err)
		}
		src = SourceInfo{Name: name, Caps: Caps(caps)}
	}
	count, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	if count > 1<<30 {
		return nil, fmt.Errorf("trace: implausible event count %d", count)
	}
	// A corrupt header must not force a gigantic up-front slice: start
	// at what the bytes already buffered (plus the rest of the input,
	// when the reader knows its length) can hold, and grow as events
	// actually arrive.
	avail := d.end - d.pos
	if l, ok := r.(interface{ Len() int }); ok {
		avail += l.Len()
	}
	t := New(min(int(count), avail/minEventBytes))
	t.Source = src
	known := map[GoID]bool{1: true} // main exists implicitly
	for i := uint64(0); i < count; i++ {
		e, err := d.event()
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if e.Type == EvGoStart {
			known[e.G] = true
		}
		if e.G != 0 && !known[e.G] {
			return nil, fmt.Errorf("trace: event %d (%s) by goroutine g%d which never appeared in a GoCreate/GoStart", i, e.Type, e.G)
		}
		if e.Type == EvGoCreate {
			known[e.Peer] = true
		}
		if len(t.Events) == cap(t.Events) {
			grown := make([]Event, len(t.Events), min(max(2*cap(t.Events), 16), int(count)))
			copy(grown, t.Events)
			t.Events = grown
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// decodeBuf is the decoder's read-buffer size.
const decodeBuf = 64 << 10

// decoder is Decode's buffered reader: fields are decoded straight out
// of its buffer, with a byte-at-a-time path only at buffer boundaries.
type decoder struct {
	r        io.Reader
	buf      []byte
	pos, end int
	err      error             // sticky read error (io.EOF at end of input)
	strs     map[string]string // interned strings
}

// fill moves the unread bytes to the front of the buffer and reads more.
// It reports whether any byte was added.
func (d *decoder) fill() bool {
	if d.err != nil {
		return false
	}
	n := copy(d.buf, d.buf[d.pos:d.end])
	d.pos, d.end = 0, n
	for empty := 0; d.end < len(d.buf); empty++ {
		m, err := d.r.Read(d.buf[d.end:])
		d.end += m
		if err != nil {
			d.err = err
			break
		}
		if m > 0 {
			break
		}
		if empty == 100 {
			d.err = io.ErrNoProgress
			break
		}
	}
	return d.end > n
}

// need makes n ≤ len(buf) bytes available, reporting false when the
// input ends first.
func (d *decoder) need(n int) bool {
	for d.end-d.pos < n {
		if !d.fill() {
			return false
		}
	}
	return true
}

// eof is the error for input that ended early.
func (d *decoder) eof() error {
	if d.err != nil && d.err != io.EOF {
		return d.err
	}
	return io.ErrUnexpectedEOF
}

var errOverflow = errors.New("varint overflows a 64-bit integer")

func (d *decoder) uvarint() (uint64, error) {
	if d.end-d.pos >= binary.MaxVarintLen64 {
		v, n := binary.Uvarint(d.buf[d.pos:d.end])
		if n <= 0 {
			return 0, errOverflow
		}
		d.pos += n
		return v, nil
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if !d.need(1) {
			return 0, d.eof()
		}
		b := d.buf[d.pos]
		d.pos++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errOverflow
}

func (d *decoder) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// string reads a length-prefixed string. One that fits the buffer is
// interned; a longer one is accumulated as its bytes arrive.
func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("trace: string too long (%d)", n)
	}
	if int(n) <= len(d.buf) {
		if !d.need(int(n)) {
			return "", d.eof()
		}
		b := d.buf[d.pos : d.pos+int(n)]
		d.pos += int(n)
		s, ok := d.strs[string(b)]
		if !ok {
			s = string(b)
			d.strs[s] = s
		}
		return s, nil
	}
	var b []byte
	for len(b) < int(n) {
		if d.pos == d.end && !d.fill() {
			return "", d.eof()
		}
		take := min(int(n)-len(b), d.end-d.pos)
		b = append(b, d.buf[d.pos:d.pos+take]...)
		d.pos += take
	}
	return string(b), nil
}

// event reads one event's fields in Encode's order.
func (d *decoder) event() (Event, error) {
	var e Event
	var err error
	var v int64
	var u uint64
	if e.Ts, err = d.varint(); err != nil {
		return e, err
	}
	if v, err = d.varint(); err != nil {
		return e, err
	}
	e.G = GoID(v)
	if u, err = d.uvarint(); err != nil {
		return e, err
	}
	e.Type = Type(u)
	if e.File, err = d.string(); err != nil {
		return e, err
	}
	if v, err = d.varint(); err != nil {
		return e, err
	}
	e.Line = int(v)
	if u, err = d.uvarint(); err != nil {
		return e, err
	}
	e.Res = ResID(u)
	if v, err = d.varint(); err != nil {
		return e, err
	}
	e.Peer = GoID(v)
	if e.Aux, err = d.varint(); err != nil {
		return e, err
	}
	if u, err = d.uvarint(); err != nil {
		return e, err
	}
	e.Blocked = u != 0
	e.Str, err = d.string()
	return e, err
}
