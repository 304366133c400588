// Package pbwire implements the Google Protocol Buffers wire format
// (varint/zigzag encoding, tagged fields, length-delimited records) that
// the Meraki reporting protocol is built on (paper Section 2: protocols
// "built with Google Protocol Buffers to minimize reporting overhead").
// It is a from-scratch, stdlib-only implementation of the wire layer —
// enough to define and evolve the report schema without code generation.
package pbwire

import (
	"errors"
	"math"
)

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

// Bool writes field as a varint 0/1.
func (e *Encoder) Bool(field int, v bool) {
	if !v {
		return
	}
	e.tag(field, TypeVarint)
	e.varint(1)
}

// Double writes field as a fixed64 IEEE 754 value.
func (e *Encoder) Double(field int, v float64) {
	if v == 0 {
		return
	}
	e.tag(field, TypeFixed64)
	bits := math.Float64bits(v)
	e.buf = append(e.buf,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// Bytes writes field as a length-delimited payload.
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

// Decoder iterates the fields of an encoded message.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder wraps an encoded message.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Done reports whether the decoder has consumed the whole message.
func (d *Decoder) Done() bool { return d.pos >= len(d.buf) }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) readVarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			return 0, ErrTruncated
		}
		b := d.buf[d.pos]
		d.pos++
		if shift == 63 && b > 1 {
			return 0, ErrOverflow
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, ErrOverflow
		}
	}
}

// Field reads the next field tag. After Field returns, call the typed
// reader matching the returned wire type (or Skip).
func (d *Decoder) Field() (field int, wt WireType, err error) {
	tag, err := d.readVarint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), WireType(tag & 7), nil
}

// Uint64 reads a varint value.
func (d *Decoder) Uint64() (uint64, error) { return d.readVarint() }

// Int64 reads a zigzag-encoded signed value.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.readVarint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

// Bool reads a varint as a boolean.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.readVarint()
	return v != 0, err
}

// Double reads a fixed64 IEEE 754 value.
func (d *Decoder) Double() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrTruncated
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(d.buf[d.pos+i]) << (8 * i)
	}
	d.pos += 8
	return math.Float64frombits(bits), nil
}

// Bytes reads a length-delimited payload. The returned slice aliases
// the input buffer.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.readVarint()
	if err != nil {
		return nil, err
	}
	if uint64(d.pos)+n > uint64(len(d.buf)) {
		return nil, ErrTruncated
	}
	out := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

// String reads a length-delimited payload as a string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Skip discards a field of the given wire type — how decoders tolerate
// schema evolution (the backend "is designed to handle schema changes").
func (d *Decoder) Skip(wt WireType) error {
	switch wt {
	case TypeVarint:
		_, err := d.readVarint()
		return err
	case TypeFixed64:
		if d.pos+8 > len(d.buf) {
			return ErrTruncated
		}
		d.pos += 8
		return nil
	case TypeBytes:
		_, err := d.Bytes()
		return err
	case TypeFixed32:
		if d.pos+4 > len(d.buf) {
			return ErrTruncated
		}
		d.pos += 4
		return nil
	default:
		return ErrBadWireType
	}
}
