package telemetry

// The v1 report and span decoders as they stood before pbwire's
// Decoder gained a sticky error, kept verbatim (only renamed) as the
// reference FuzzUnmarshalReport checks the live decoders against: on
// every input both must give the same value and the same error text.
// Where the reference panics — a length prefix so large that its read
// position wraps — the live decoder must fail with ErrTruncated.

import (
	"fmt"

	"wlanscale/internal/dot11"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/telemetry/pbwire"
)

// refDecoder iterates the fields of an encoded message.
type refDecoder struct {
	buf []byte
	pos int
}

// newRefDecoder wraps an encoded message.
func newRefDecoder(b []byte) *refDecoder { return &refDecoder{buf: b} }

// Done reports whether the decoder has consumed the whole message.
func (d *refDecoder) Done() bool { return d.pos >= len(d.buf) }

func (d *refDecoder) readVarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			return 0, pbwire.ErrTruncated
		}
		b := d.buf[d.pos]
		d.pos++
		if shift == 63 && b > 1 {
			return 0, pbwire.ErrOverflow
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, pbwire.ErrOverflow
		}
	}
}

// Field reads the next field tag. After Field returns, call the typed
// reader matching the returned wire type (or Skip).
func (d *refDecoder) Field() (field int, wt pbwire.WireType, err error) {
	tag, err := d.readVarint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), pbwire.WireType(tag & 7), nil
}

// Uint64 reads a varint value.
func (d *refDecoder) Uint64() (uint64, error) { return d.readVarint() }

// Int64 reads a zigzag-encoded signed value.
func (d *refDecoder) Int64() (int64, error) {
	v, err := d.readVarint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

// Bytes reads a length-delimited payload. The returned slice aliases
// the input buffer.
func (d *refDecoder) Bytes() ([]byte, error) {
	n, err := d.readVarint()
	if err != nil {
		return nil, err
	}
	if uint64(d.pos)+n > uint64(len(d.buf)) {
		return nil, pbwire.ErrTruncated
	}
	out := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

// String reads a length-delimited payload as a string.
func (d *refDecoder) String() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Skip discards a field of the given wire type — how decoders tolerate
// schema evolution (the backend "is designed to handle schema changes").
func (d *refDecoder) Skip(wt pbwire.WireType) error {
	switch wt {
	case pbwire.TypeVarint:
		_, err := d.readVarint()
		return err
	case pbwire.TypeFixed64:
		if d.pos+8 > len(d.buf) {
			return pbwire.ErrTruncated
		}
		d.pos += 8
		return nil
	case pbwire.TypeBytes:
		_, err := d.Bytes()
		return err
	case pbwire.TypeFixed32:
		if d.pos+4 > len(d.buf) {
			return pbwire.ErrTruncated
		}
		d.pos += 4
		return nil
	default:
		return pbwire.ErrBadWireType
	}
}

// refUnmarshalReport decodes a report, skipping unknown fields so old
// readers accept new senders.
func refUnmarshalReport(b []byte) (*Report, error) {
	r := &Report{}
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return nil, fmt.Errorf("telemetry: report header: %w", err)
		}
		switch f {
		case fSerial:
			if r.Serial, err = d.String(); err != nil {
				return nil, err
			}
		case fMAC:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.MAC = dot11.MACFromPacked(v)
		case fTime:
			if r.Timestamp, err = d.Uint64(); err != nil {
				return nil, err
			}
		case fSeq:
			if r.SeqNo, err = d.Uint64(); err != nil {
				return nil, err
			}
		case fTrace:
			if r.TraceID, err = d.Uint64(); err != nil {
				return nil, err
			}
		case fRadio:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			rs, err := refDecodeRadio(nb)
			if err != nil {
				return nil, err
			}
			r.Radios = append(r.Radios, rs)
		case fClient:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			c, err := refDecodeClient(nb)
			if err != nil {
				return nil, err
			}
			r.Clients = append(r.Clients, c)
		case fNeigh:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			n, err := refDecodeNeighbor(nb)
			if err != nil {
				return nil, err
			}
			r.Neighbors = append(r.Neighbors, n)
		case fLink:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			l, err := refDecodeLink(nb)
			if err != nil {
				return nil, err
			}
			r.LinkWindows = append(r.LinkWindows, l)
		case fScan:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			s, err := refDecodeScan(nb)
			if err != nil {
				return nil, err
			}
			r.ScanSamples = append(r.ScanSamples, s)
		case fCrash:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			c, err := refDecodeCrash(nb)
			if err != nil {
				return nil, err
			}
			r.Crashes = append(r.Crashes, c)
		default:
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func refDecodeRadio(b []byte) (RadioStats, error) {
	var rs RadioStats
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return rs, err
		}
		var v uint64
		switch f {
		case 1, 2, 3, 4, 5, 6, 7:
			if v, err = d.Uint64(); err != nil {
				return rs, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return rs, err
			}
			continue
		}
		switch f {
		case 1:
			rs.Band = dot11.Band(v)
		case 2:
			rs.Channel = int(v)
		case 3:
			rs.WidthMHz = int(v)
		case 4:
			rs.CycleUS = v
		case 5:
			rs.RxClearUS = v
		case 6:
			rs.Rx11US = v
		case 7:
			rs.TxUS = v
		}
	}
	return rs, nil
}

func refDecodeClient(b []byte) (ClientRecord, error) {
	var c ClientRecord
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return c, err
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.MAC = dot11.MACFromPacked(v)
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.Band = dot11.Band(v)
		case 3:
			v, err := d.Int64()
			if err != nil {
				return c, err
			}
			c.RSSIdB = int32(v)
		case 4:
			nb, err := d.Bytes()
			if err != nil {
				return c, err
			}
			// A blob of the wrong length is ignored: the client advertises
			// nothing, in the normalized form every decoded value has.
			c.Caps = dot11.Capabilities{}.Normalize()
			if len(nb) == 2 {
				c.Caps = dot11.UnmarshalCapabilities([2]byte{nb[0], nb[1]})
			}
		case 5:
			s, err := d.String()
			if err != nil {
				return c, err
			}
			c.UserAgents = append(c.UserAgents, s)
		case 6:
			nb, err := d.Bytes()
			if err != nil {
				return c, err
			}
			fp := make([]byte, len(nb))
			copy(fp, nb)
			c.DHCPFingerprints = append(c.DHCPFingerprints, fp)
		case 7:
			nb, err := d.Bytes()
			if err != nil {
				return c, err
			}
			a, err := refDecodeAppUsage(nb)
			if err != nil {
				return c, err
			}
			c.Apps = append(c.Apps, a)
		default:
			if err := d.Skip(wt); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

func refDecodeAppUsage(b []byte) (AppUsageRecord, error) {
	var a AppUsageRecord
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return a, err
		}
		switch f {
		case 1:
			if a.App, err = d.String(); err != nil {
				return a, err
			}
		case 2:
			if a.UpBytes, err = d.Uint64(); err != nil {
				return a, err
			}
		case 3:
			if a.DownBytes, err = d.Uint64(); err != nil {
				return a, err
			}
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return a, err
			}
			a.Flows = uint32(v)
		default:
			if err := d.Skip(wt); err != nil {
				return a, err
			}
		}
	}
	return a, nil
}

func refDecodeNeighbor(b []byte) (NeighborRecord, error) {
	var n NeighborRecord
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return n, err
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return n, err
			}
			n.BSSID = dot11.MACFromPacked(v)
		case 2:
			if n.SSID, err = d.String(); err != nil {
				return n, err
			}
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return n, err
			}
			n.Band = dot11.Band(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return n, err
			}
			n.Channel = int(v)
		case 5:
			v, err := d.Int64()
			if err != nil {
				return n, err
			}
			n.RSSIdB = int32(v)
		case 6:
			if n.Vendor, err = d.String(); err != nil {
				return n, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

func refDecodeLink(b []byte) (LinkWindow, error) {
	var l LinkWindow
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return l, err
		}
		var v uint64
		switch f {
		case 1, 2, 3, 4:
			if v, err = d.Uint64(); err != nil {
				return l, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return l, err
			}
			continue
		}
		switch f {
		case 1:
			l.Peer = dot11.MACFromPacked(v)
		case 2:
			l.Band = dot11.Band(v)
		case 3:
			l.Sent = uint32(v)
		case 4:
			l.Delivered = uint32(v)
		}
	}
	return l, nil
}

func refDecodeScan(b []byte) (ScanSample, error) {
	var s ScanSample
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return s, err
		}
		var v uint64
		switch f {
		case 1, 2, 3, 4:
			if v, err = d.Uint64(); err != nil {
				return s, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return s, err
			}
			continue
		}
		switch f {
		case 1:
			s.Band = dot11.Band(v)
		case 2:
			s.Channel = int(v)
		case 3:
			s.BusyPermille = uint32(v)
		case 4:
			s.DecodablePermille = uint32(v)
		}
	}
	return s, nil
}

func refDecodeCrash(b []byte) (CrashRecord, error) {
	var c CrashRecord
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return c, err
		}
		switch f {
		case 1:
			if c.Timestamp, err = d.Uint64(); err != nil {
				return c, err
			}
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.Kind = uint8(v)
		case 3:
			if c.Firmware, err = d.String(); err != nil {
				return c, err
			}
		case 4:
			if c.PC, err = d.Uint64(); err != nil {
				return c, err
			}
		case 5:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.FreeKB = uint32(v)
		case 6:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.NeighborCount = uint32(v)
		default:
			if err := d.Skip(wt); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

func refDecodeSpan(b []byte) (trace.Event, error) {
	var ev trace.Event
	d := newRefDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return ev, err
		}
		switch f {
		case fSpanTrace:
			v, err := d.Uint64()
			if err != nil {
				return ev, err
			}
			ev.Trace = trace.ID(v)
		case fSpanSpan:
			v, err := d.Uint64()
			if err != nil {
				return ev, err
			}
			ev.Span = uint32(v)
		case fSpanParent:
			v, err := d.Uint64()
			if err != nil {
				return ev, err
			}
			ev.Parent = uint32(v)
		case fSpanSerial:
			if ev.Serial, err = d.String(); err != nil {
				return ev, err
			}
		case fSpanSeq:
			if ev.Seq, err = d.Uint64(); err != nil {
				return ev, err
			}
		case fSpanStartUS:
			if ev.StartUS, err = d.Int64(); err != nil {
				return ev, err
			}
		case fSpanDurUS:
			if ev.DurUS, err = d.Int64(); err != nil {
				return ev, err
			}
		case fSpanRetries:
			v, err := d.Uint64()
			if err != nil {
				return ev, err
			}
			ev.Retries = int(v)
		case fSpanFault:
			if ev.Fault, err = d.String(); err != nil {
				return ev, err
			}
		case fSpanErr:
			if ev.Err, err = d.String(); err != nil {
				return ev, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return ev, err
			}
		}
	}
	// The stage name travels implicitly as the span ID.
	ev.Stage = trace.Stage(ev.Span).String()
	return ev, nil
}
