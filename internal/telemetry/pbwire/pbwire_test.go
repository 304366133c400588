package pbwire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	err := quick.Check(func(v uint64) bool {
		var e Encoder
		e.Uint64(1, v)
		if v == 0 {
			return e.Len() == 0 // proto3 zero omission
		}
		d := NewDecoder(e.Bytes())
		f, wt := d.Field()
		got := d.Uint64()
		return d.Err() == nil && f == 1 && wt == TypeVarint && got == v && !d.More()
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	err := quick.Check(func(v int64) bool {
		var e Encoder
		e.Int64(2, v)
		if v == 0 {
			return e.Len() == 0
		}
		d := NewDecoder(e.Bytes())
		d.Field()
		got := d.Int64()
		return d.Err() == nil && got == v
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

func TestZigzagSmallNegatives(t *testing.T) {
	// Zigzag must keep small negatives small on the wire.
	var e Encoder
	e.Int64(1, -1)
	if e.Len() != 2 {
		t.Errorf("-1 encoded in %d bytes, want 2 (tag + 1)", e.Len())
	}
}

// fixed64Field hand-builds a fixed64 field (wire type 1): the encoder
// writes none, but a newer sender may, so the decoder must skip one.
func fixed64Field(field int, bits uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{byte(field<<3 | int(TypeFixed64))}, bits)
}

// TestFixed64Skip skips hand-built fixed64 fields (an IEEE 754 double
// on the wire) of every bit pattern and lands exactly on the next
// field.
func TestFixed64Skip(t *testing.T) {
	err := quick.Check(func(v float64) bool {
		b := fixed64Field(3, math.Float64bits(v))
		b = append(b, 4<<3, 9) // field 4, varint 9
		d := NewDecoder(b)
		f, wt := d.Field()
		d.Skip(wt)
		f2, _ := d.Field()
		got := d.Uint64()
		return d.Err() == nil && f == 3 && wt == TypeFixed64 && f2 == 4 && got == 9 && !d.More()
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

func TestStringAndBytes(t *testing.T) {
	var e Encoder
	e.String(1, "hello")
	e.BytesField(2, []byte{0, 1, 2})
	d := NewDecoder(e.Bytes())
	if f, _ := d.Field(); f != 1 {
		t.Fatalf("field = %d", f)
	}
	if s := d.String(); s != "hello" {
		t.Errorf("string = %q", s)
	}
	if f, _ := d.Field(); f != 2 {
		t.Fatalf("field = %d", f)
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{0, 1, 2}) {
		t.Errorf("bytes = %v", b)
	}
	if d.Err() != nil || d.More() {
		t.Errorf("not done: err %v, %d bytes left", d.Err(), d.Remaining())
	}
}

// TestBoolRoundTrip: a proto bool is a varint 0/1, so true travels as
// 1 and false, a zero, is omitted.
func TestBoolRoundTrip(t *testing.T) {
	var e Encoder
	e.Uint64(4, 1)
	e.Uint64(5, 0) // omitted
	d := NewDecoder(e.Bytes())
	if f, _ := d.Field(); f != 4 {
		t.Fatalf("field = %d", f)
	}
	if v := d.Uint64() != 0; !v || d.Err() != nil {
		t.Errorf("bool = %v, %v", v, d.Err())
	}
	if d.More() {
		t.Error("false bool was encoded")
	}
}

func TestNestedMessage(t *testing.T) {
	var inner Encoder
	inner.Uint64(1, 42)
	inner.String(2, "nested")
	var outer Encoder
	outer.Message(7, &inner)
	outer.Uint64(8, 9)

	d := NewDecoder(outer.Bytes())
	f, wt := d.Field()
	if f != 7 || wt != TypeBytes {
		t.Fatalf("field = %d wt = %d", f, wt)
	}
	nd := d.Message()
	f, _ = nd.Field()
	if v := nd.Uint64(); f != 1 || v != 42 {
		t.Errorf("nested field 1 = %d", v)
	}
	f, _ = nd.Field()
	if s := nd.String(); f != 2 || s != "nested" {
		t.Errorf("nested field 2 = %q", s)
	}
	if nd.More() {
		t.Error("nested message not fully read")
	}
	f, _ = d.Field()
	if v := d.Uint64(); f != 8 || v != 9 {
		t.Errorf("outer field 8 = %d", v)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// TestNestedFailureReachesParent: a read that fails inside a nested
// message fails its parent, which then reads nothing more.
func TestNestedFailureReachesParent(t *testing.T) {
	var outer Encoder
	outer.BytesField(7, []byte{1 << 3}) // nested field 1 with no value
	outer.Uint64(8, 9)
	d := NewDecoder(outer.Bytes())
	d.Field()
	nd := d.Message()
	nd.Field()
	if v := nd.Uint64(); v != 0 || nd.Err() != ErrTruncated {
		t.Fatalf("nested read = %d, %v; want 0, ErrTruncated", v, nd.Err())
	}
	if d.Err() != ErrTruncated || d.More() {
		t.Fatalf("parent after nested failure: err %v, more %v", d.Err(), d.More())
	}
	if f, wt := d.Field(); f != 0 || wt != 0 || d.Uint64() != 0 {
		t.Error("failed parent still reads fields")
	}
	if m := d.Message(); m.More() || m.Err() != ErrTruncated {
		t.Error("message of a failed parent is readable")
	}
}

// TestStickyError: the first failure wins and every later read
// returns the zero value, whatever bytes remain.
func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{1 << 3, 5, 2 << 3, 6}) // two well-formed fields
	d.Skip(WireType(3))
	if d.Err() != ErrBadWireType || d.More() || d.Remaining() != 0 {
		t.Fatalf("after bad wire type: err %v, more %v, remaining %d", d.Err(), d.More(), d.Remaining())
	}
	if v, s, b := d.Uint64(), d.String(), d.Bytes(); v != 0 || s != "" || b != nil {
		t.Errorf("reads after failure = %d %q %v", v, s, b)
	}
	d.Skip(TypeFixed32)
	d.Fail(ErrOverflow)
	if d.Err() != ErrBadWireType {
		t.Errorf("err = %v, want the first failure", d.Err())
	}
}

func TestEmptyNestedMessagePreserved(t *testing.T) {
	var inner, outer Encoder
	outer.Message(3, &inner)
	d := NewDecoder(outer.Bytes())
	f, wt := d.Field()
	if d.Err() != nil || f != 3 || wt != TypeBytes {
		t.Fatalf("empty nested message lost: %d %d %v", f, wt, d.Err())
	}
	if b := d.Bytes(); d.Err() != nil || len(b) != 0 {
		t.Errorf("payload = %v, %v", b, d.Err())
	}
}

func TestSkipUnknownFields(t *testing.T) {
	// Schema evolution: a v2 sender adds fields a v1 reader skips.
	var e Encoder
	e.Uint64(1, 5)
	e.Append(fixed64Field(99, math.Float64bits(3.14))) // unknown fixed64
	e.String(100, "future")                            // unknown bytes
	e.Uint64(101, 7)                                   // unknown varint
	e.Uint64(2, 6)

	d := NewDecoder(e.Bytes())
	var got1, got2 uint64
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			got1 = d.Uint64()
		case 2:
			got2 = d.Uint64()
		default:
			d.Skip(wt)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if got1 != 5 || got2 != 6 {
		t.Errorf("known fields = %d, %d", got1, got2)
	}
}

func TestSkipFixed32(t *testing.T) {
	// Hand-build a fixed32 field (tag 1, wiretype 5).
	raw := []byte{1<<3 | 5, 1, 2, 3, 4}
	d := NewDecoder(raw)
	_, wt := d.Field()
	d.Skip(wt)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.More() {
		t.Error("fixed32 not fully skipped")
	}
}

func TestTruncationErrors(t *testing.T) {
	var e Encoder
	e.String(1, "hello world")
	full := e.Bytes()
	for cut := 1; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Field()
		if s := d.String(); d.Err() != ErrTruncated || s != "" {
			t.Errorf("truncation at %d: %q, %v", cut, s, d.Err())
		}
	}
	// A length that would wrap the read position past the end of the
	// input is truncation too, not a slice past the buffer.
	d := NewDecoder([]byte{1<<3 | 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	d.Field()
	if b := d.Bytes(); b != nil || d.Err() != ErrTruncated {
		t.Errorf("length 2^64-1 = %v, %v; want ErrTruncated", b, d.Err())
	}
}

func TestVarintOverflow(t *testing.T) {
	raw := []byte{1 << 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	d := NewDecoder(raw)
	d.Field()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if v := d.Uint64(); v != 0 || d.Err() != ErrOverflow {
		t.Errorf("overflow = %d, %v", v, d.Err())
	}
}

func TestBadWireTypeSkip(t *testing.T) {
	d := NewDecoder(nil)
	if d.Skip(WireType(3)); d.Err() != ErrBadWireType {
		t.Errorf("group wire type err = %v", d.Err())
	}
}

func TestDecoderFuzzNoPanic(t *testing.T) {
	err := quick.Check(func(b []byte) bool {
		d := NewDecoder(b)
		for i := 0; i < 100 && d.More(); i++ {
			_, wt := d.Field()
			d.Skip(wt)
		}
		return true
	}, &quick.Config{MaxCount: 3000})
	if err != nil {
		t.Error(err)
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.Uint64(1, 10)
	e.Reset()
	if e.Len() != 0 {
		t.Error("reset did not clear")
	}
	e.Uint64(1, 20)
	d := NewDecoder(e.Bytes())
	d.Field()
	if v := d.Uint64(); v != 20 {
		t.Errorf("after reset = %d", v)
	}
}

// benchMessage is a four-field message: a varint, a string, a fixed64
// and a zigzag varint.
func benchMessage(e *Encoder, i int) {
	e.Uint64(1, uint64(i))
	e.String(2, "ap-serial-Q2XX-1234")
	e.Append(fixed64Field(3, math.Float64bits(0.42)))
	e.Int64(4, -55)
}

func BenchmarkEncodeReport(b *testing.B) {
	b.ReportAllocs()
	var e Encoder
	for i := 0; i < b.N; i++ {
		e.Reset()
		benchMessage(&e, i)
	}
}

func BenchmarkDecodeReport(b *testing.B) {
	var e Encoder
	benchMessage(&e, 123456)
	raw := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(raw)
		for d.More() {
			_, wt := d.Field()
			d.Skip(wt)
		}
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}
