// Package pbwire implements the Google Protocol Buffers wire format
// (varint/zigzag encoding, tagged fields, length-delimited records) that
// the Meraki reporting protocol is built on (paper Section 2: protocols
// "built with Google Protocol Buffers to minimize reporting overhead").
// It is a from-scratch, stdlib-only implementation of the wire layer —
// enough to define and evolve the report schema without code generation.
//
// Every reader of the repo's varint formats — v1 reports, trace spans,
// v2 batches (batch.go) and WAL migration records — reads through one
// Decoder whose error is sticky: a failed read turns every later read
// into a zero, so a message decoder is a flat sequence of reads with
// one Err check at the end, and a nested message's failure is its
// parent's.
package pbwire

import "errors"

// WireType is a protobuf wire type.
type WireType uint8

const (
	// TypeVarint is wire type 0: varint-encoded integers and booleans.
	TypeVarint WireType = 0
	// TypeFixed64 is wire type 1: 8-byte little-endian values.
	TypeFixed64 WireType = 1
	// TypeBytes is wire type 2: length-delimited payloads (strings,
	// bytes, nested messages, packed repeated fields).
	TypeBytes WireType = 2
	// TypeFixed32 is wire type 5: 4-byte little-endian values.
	TypeFixed32 WireType = 5
)

// Errors returned by the decoder.
var (
	ErrTruncated   = errors.New("pbwire: truncated message")
	ErrOverflow    = errors.New("pbwire: varint overflows 64 bits")
	ErrBadWireType = errors.New("pbwire: unsupported wire type")
)

// Encoder appends protobuf-encoded fields to a buffer. The zero value
// is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) tag(field int, wt WireType) {
	e.varint(uint64(field)<<3 | uint64(wt))
}

func (e *Encoder) varint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// Uint64 writes field as a varint.
func (e *Encoder) Uint64(field int, v uint64) {
	if v == 0 {
		return // proto3 semantics: zero values are omitted
	}
	e.tag(field, TypeVarint)
	e.varint(v)
}

// Int64 writes field as a zigzag-encoded signed varint (sint64).
func (e *Encoder) Int64(field int, v int64) {
	if v == 0 {
		return
	}
	e.tag(field, TypeVarint)
	e.varint(uint64(v<<1) ^ uint64(v>>63))
}

// BytesField writes field as a length-delimited payload.
func (e *Encoder) BytesField(field int, v []byte) {
	if len(v) == 0 {
		return
	}
	e.tag(field, TypeBytes)
	e.varint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// String writes field as a length-delimited string.
func (e *Encoder) String(field int, v string) {
	if v == "" {
		return
	}
	e.tag(field, TypeBytes)
	e.varint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Message writes a nested message field from its encoded bytes. Unlike
// BytesField it is written even when empty, so presence survives.
func (e *Encoder) Message(field int, enc *Encoder) {
	e.tag(field, TypeBytes)
	e.varint(uint64(len(enc.buf)))
	e.buf = append(e.buf, enc.buf...)
}

// Decoder iterates the fields of an encoded message. Its error is
// sticky: the first failed read records it, every later read returns
// the zero value and More turns false, so a caller reads a whole
// message and checks Err once. A decoder from Message records its
// failure in its parent too.
type Decoder struct {
	buf    []byte
	pos    int
	err    error
	parent *Decoder
}

// NewDecoder wraps an encoded message.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset makes d read b from the start, as NewDecoder(b) would.
func (d *Decoder) Reset(b []byte) { *d = Decoder{buf: b} }

// Err returns the decoder's first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's failure, and its parents', unless
// one is already recorded, and leaves nothing to read. It is how a
// caller's own checks (a count past the input, a dangling reference)
// fail a message the way a wire error does.
func (d *Decoder) Fail(err error) {
	for ; d != nil && d.err == nil; d = d.parent {
		d.err, d.pos = err, len(d.buf)
	}
}

// More reports whether unread bytes remain and no read has failed.
func (d *Decoder) More() bool { return d.err == nil && d.pos < len(d.buf) }

// Remaining returns the number of unread bytes: zero once a read has
// failed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Field reads the next field tag. After Field returns, call the typed
// reader matching the returned wire type (or Skip).
func (d *Decoder) Field() (field int, wt WireType) {
	tag := d.Uint64()
	return int(tag >> 3), WireType(tag & 7)
}

// Uint64 reads a varint value.
func (d *Decoder) Uint64() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if d.pos >= len(d.buf) {
			d.Fail(ErrTruncated)
			return 0
		}
		b := d.buf[d.pos]
		d.pos++
		if shift == 63 && b > 1 {
			d.Fail(ErrOverflow)
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

// Int64 reads a zigzag-encoded signed value.
func (d *Decoder) Int64() int64 {
	v := d.Uint64()
	return int64(v>>1) ^ -int64(v&1)
}

// Bytes reads a length-delimited payload. The returned slice aliases
// the input buffer.
func (d *Decoder) Bytes() []byte {
	n := d.Uint64()
	if n > uint64(d.Remaining()) {
		d.Fail(ErrTruncated)
	}
	if d.err != nil {
		return nil
	}
	out := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out
}

// String reads a length-delimited payload as a string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Message reads a length-delimited payload as a nested message: a
// decoder over it whose failures are also d's.
func (d *Decoder) Message() *Decoder {
	return &Decoder{buf: d.Bytes(), err: d.err, parent: d}
}

// Skip discards a field of the given wire type — how decoders tolerate
// schema evolution (the backend "is designed to handle schema changes").
func (d *Decoder) Skip(wt WireType) {
	switch wt {
	case TypeVarint:
		d.Uint64()
	case TypeFixed64:
		d.fixed(8)
	case TypeBytes:
		d.Bytes()
	case TypeFixed32:
		d.fixed(4)
	default:
		d.Fail(ErrBadWireType)
	}
}

func (d *Decoder) fixed(n int) {
	if d.Remaining() < n {
		d.Fail(ErrTruncated)
	} else {
		d.pos += n
	}
}
