package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"wlanscale/internal/telemetry/pbwire"
)

// FuzzDecodeMessage fuzzes the tunnel protocol decoder — including the
// optional trace-span block — for two properties: no panic on arbitrary
// bytes, and re-encode/re-decode stability (decode(encode(decode(b)))
// must equal decode(b)) so the wire evolution cannot silently drop or
// mutate fields. The checked-in seed corpus (testdata/fuzz) covers
// every frame type in both legacy (span-free) and traced form.
func FuzzDecodeMessage(f *testing.F) {
	// Legacy frames: the pre-tracing protocol, as PR 1 shipped it.
	f.Add(EncodeMessage(&Message{Type: frameHello, Serial: "Q2XX-ABCD-1234"}))
	f.Add(EncodeMessage(&Message{Type: framePoll, Max: 32}))
	f.Add(EncodeMessage(&Message{Type: frameAck, Count: 3}))
	f.Add(EncodeMessage(&Message{
		Type: frameReports, Dropped: 7,
		Reports: [][]byte{sampleReport().Marshal(), (&Report{Serial: "Q2"}).Marshal()},
	}))
	// Traced frames: span block present, reports stamped.
	traced := sampleReport()
	traced.TraceID = 0xdeadbeefcafe
	f.Add(EncodeMessage(&Message{
		Type: frameReports, Dropped: 1,
		Reports: [][]byte{traced.Marshal()},
		Spans:   sampleSpans(),
	}))
	f.Add(EncodeMessage(&Message{Type: frameReports, Spans: sampleSpans()[:1]}))
	// Degenerate shapes the decoder must reject or tolerate.
	f.Add([]byte{frameReports, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{frameReports, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff})

	// Wire v2 frames: the negotiation pair and a delta-coded batch,
	// routed through the same decoder.
	f.Add(EncodeMessage(&Message{Type: frameHelloV2, Wire: WireV2, Serial: "Q2XX-ABCD-1234"}))
	f.Add(EncodeMessage(&Message{Type: framePollV2, Wire: WireV2, Max: 64}))
	f.Add(EncodeMessage(&Message{Type: frameBatch, Batch: &BatchFrame{
		Version: WireV2, Dropped: 2, QueueDepth: 11,
		Reports: []*Report{mustV1RoundTrip(sampleReport())},
	}}))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		re, err := DecodeMessage(EncodeMessage(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(m, re) {
			t.Fatalf("round trip unstable:\nfirst  %+v\nsecond %+v", m, re)
		}
		for _, rb := range m.Reports {
			_, _ = UnmarshalReport(rb)
		}
	})
}

// FuzzUnmarshalReport is the oracle for v1 decoding. (a) Differential:
// on every input UnmarshalReport and decodeSpan give what the reference
// decoders of refdecode_test.go give — the same value and the same
// error text — except where the reference panics, where they must fail
// with ErrTruncated. (b) Stability: a decoded report's Marshal decodes
// to a report that marshals to the same bytes, so decode∘Marshal is a
// fixed point after one trip (the first may drop empty strings and
// fingerprints, which Marshal omits).
func FuzzUnmarshalReport(f *testing.F) {
	traced := sampleReport()
	traced.TraceID = 0xdeadbeefcafe
	f.Add(sampleReport().Marshal())
	f.Add(traced.Marshal())
	f.Add((&Report{}).Marshal())
	for _, r := range presenceReports() {
		f.Add(r.Marshal())
	}
	for _, sp := range sampleSpans() {
		f.Add(encodeSpan(sp))
	}
	// Unknown fields of every wire type, and a group (wire type 3)
	// that no reader skips.
	f.Add(append(sampleReport().Marshal(),
		12<<3|1, 1, 2, 3, 4, 5, 6, 7, 8, 13<<3|5, 1, 2, 3, 4, 14<<3|2, 1, 'x', 15<<3, 7))
	f.Add([]byte{fSerial<<3 | 2, 1, 'Q', 15<<3 | 3})
	// A client whose capability blob is one byte, not two.
	f.Add([]byte{fClient<<3 | 2, 3, 4<<3 | 2, 1, 0xff})
	// Cut mid-tag, mid-value and mid-nested-message.
	whole := sampleReport().Marshal()
	f.Add([]byte{0x80})
	f.Add(whole[:1])
	f.Add(whole[:len(whole)/2])
	f.Add(whole[:len(whole)-1])
	// A varint overflow, and a length of 2^64-1, whose read position
	// wraps in the reference.
	f.Add([]byte{fTime << 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{fSerial<<3 | 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalReport(b)
		sameDecode(t, "UnmarshalReport", got, err, func() (any, error) { return refUnmarshalReport(b) })
		d := pbwire.NewDecoder(b)
		sp := decodeSpan(d)
		sameDecode(t, "decodeSpan", sp, d.Err(), func() (any, error) { return refDecodeSpan(b) })
		if err != nil {
			return
		}
		raw := got.Marshal()
		again, err := UnmarshalReport(raw)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(again.Marshal(), raw) {
			t.Fatalf("re-marshal unstable:\nfirst  %+v\nsecond %+v", got, again)
		}
	})
}

// sameDecode fails t unless the live decoder's result (got, err)
// matches the reference's. The reference panicking on input the live
// decoder must reject as truncated is the one allowed difference.
func sameDecode(t *testing.T, name string, got any, err error, ref func() (any, error)) {
	t.Helper()
	want, wantErr, panicked := func() (v any, err error, panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		v, err = ref()
		return v, err, false
	}()
	switch {
	case panicked:
		if !errors.Is(err, pbwire.ErrTruncated) {
			t.Fatalf("%s: reference panicked, live error = %v, want ErrTruncated", name, err)
		}
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: error = %v, reference %v", name, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoded\n %+v\nreference\n %+v", name, got, want)
	}
}

// mustV1RoundTrip normalizes a report through the v1 codec, so fuzz
// seeds compare against proto3 presence semantics (nil-vs-empty).
func mustV1RoundTrip(r *Report) *Report {
	out, err := UnmarshalReport(r.Marshal())
	if err != nil {
		panic(err)
	}
	return out
}

// FuzzDecodeBatchFrame fuzzes the v2 batch decoder directly — the
// densest new attack surface: every count, dictionary reference, and
// delta comes off the wire. Properties: no panic, no unbounded
// allocation (at most DecodeBatchFrame's documented k bytes per input
// byte; a dictionary overflow is rejected before any proportional
// allocation), re-encode/re-decode stability so the delta/dictionary
// rules cannot silently mutate a report, and reuse transparency: a
// BatchDecoder that decoded other batches first returns exactly what a
// fresh one does.
func FuzzDecodeBatchFrame(f *testing.F) {
	// A healthy multi-report batch with shared dictionary + deltas.
	be := NewBatchEncoder(0)
	for i := 0; i < 4; i++ {
		r := sampleReport()
		r.Timestamp += uint64(i) * 60e6
		r.SeqNo = uint64(i + 1)
		be.Add(r)
	}
	healthy := be.Finish(3, 17, sampleSpans())
	f.Add(healthy)
	// A healthy batch whose dictionary and list shapes differ from the
	// one above: decoded after it, it lands on the same arena slots
	// with other contents.
	other := NewBatchEncoder(0)
	for _, r := range append(presenceReports(), variedReport(1), variedReport(3)) {
		other.Add(r)
	}
	f.Add(other.Finish(0, 0, nil))
	// Empty batch.
	f.Add(NewBatchEncoder(0).Finish(0, 0, nil))
	// Dictionary overflow: declares 2^16+1 entries (varint 0x81 0x80
	// 0x04). The decoder must reject the count up front, not allocate
	// for it.
	f.Add([]byte{WireV2, 0, 0, 0x81, 0x80, 0x04})
	// Truncated deltas: a valid batch cut mid-report body.
	whole := be.Finish(0, 0, nil)
	f.Add(whole[:len(whole)-7])
	f.Add(whole[:len(whole)/2])
	// Mixed v1/v2 streams: a v1 frameReports payload and a v1-tagged
	// batch, both of which must be cleanly rejected, plus a v2 batch
	// with a v1 report glued on the end (trailing bytes).
	v1frame := EncodeMessage(&Message{Type: frameReports, Reports: [][]byte{sampleReport().Marshal()}})
	f.Add(v1frame[1:])
	f.Add(append([]byte{WireV1}, whole[1:]...))
	f.Add(append(append([]byte{}, whole...), sampleReport().Marshal()...))
	// Bad dictionary refs and a non-6-byte MAC entry.
	f.Add([]byte{WireV2, 0, 0, 1, 2, 'a', 'b', 1, 0x05, 0, 0, 0, 0})
	// Counts far beyond what the body holds.
	for _, b := range hugeCountPayloads() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		limit := uint64(decodeAllocPerByte*len(b) + decodeAllocSlack)
		if got := decodeAllocBytes(b, limit); got > limit {
			t.Fatalf("decode of %d bytes allocated %d, bound %d", len(b), got, limit)
		}
		// One decoder takes the healthy batch, the input, then the
		// healthy batch again; nothing a decode leaves in the arena may
		// show in the next one's result or error.
		dec := new(BatchDecoder)
		for i, in := range [][]byte{healthy, b, healthy} {
			got, err := dec.Decode(in)
			sameDecode(t, fmt.Sprintf("reused decoder, decode %d", i), got, err,
				func() (any, error) { return DecodeBatchFrame(in) })
		}
		bf, err := DecodeBatchFrame(b)
		if err != nil {
			return
		}
		re, err := DecodeBatchFrame(EncodeBatchPayload(bf))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(bf, re) {
			t.Fatalf("batch round trip unstable:\nfirst  %+v\nsecond %+v", bf, re)
		}
	})
}
