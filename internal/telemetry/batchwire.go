package telemetry

import (
	"errors"
	"fmt"
	"io"

	"wlanscale/internal/dot11"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/telemetry/pbwire"
)

// Wire protocol versions. WireV1 is the original per-report protobuf
// protocol; WireV2 coalesces a poll's reports into one delta-coded
// batch frame with a shared dictionary (DESIGN.md §10). Version choice
// is per session: the agent advertises its maximum in the hello, the
// backend picks, and every frame of the session follows that choice, so
// a v1 peer on either side keeps speaking the legacy byte-identical
// protocol.
const (
	WireV1 byte = 1
	WireV2 byte = 2
)

// ParseWire parses a -wire flag value ("v1" or "v2") into a wire
// version constant.
func ParseWire(s string) (byte, error) {
	switch s {
	case "v1", "1":
		return WireV1, nil
	case "v2", "2":
		return WireV2, nil
	}
	return 0, fmt.Errorf("telemetry: unknown wire version %q (want v1 or v2)", s)
}

// Batch decoding errors.
var (
	ErrBadWireVersion = errors.New("telemetry: unsupported batch wire version")
	ErrBadMACEntry    = errors.New("telemetry: dictionary MAC entry is not 6 bytes")
	ErrTrailingBytes  = errors.New("telemetry: trailing bytes after batch frame")
)

// BatchFrame is one decoded v2 report batch: everything a frameReports
// carried in v1, plus the device's remaining queue depth — the
// backpressure hint merakid uses to switch a hot device into drain-mode
// polling instead of waiting out the poll tick.
type BatchFrame struct {
	Version    byte
	Dropped    uint32
	QueueDepth uint32
	Reports    []*Report
	Spans      []trace.Event
}

// batchPrev is the cross-report delta context. Both codec directions
// maintain it identically: each report's timestamp, sequence number,
// device MAC, and radio counters are coded relative to the previous
// report in the batch.
type batchPrev struct {
	mac, ts, seq uint64
	radios       []RadioStats
	// clients and crashes enable same-index delta coding of the big
	// movers inside those sections (per-app byte counters, crash PCs):
	// consecutive reports from one device list the same clients in the
	// same order, so positional deltas almost always land.
	clients []ClientRecord
	crashes []CrashRecord
}

// set records r as the previous report for the next delta round.
func (p *batchPrev) set(mac uint64, r *Report) {
	p.mac = mac
	p.ts = r.Timestamp
	p.seq = r.SeqNo
	p.radios = append(p.radios[:0], r.Radios...)
	p.clients = append(p.clients[:0], r.Clients...)
	p.crashes = append(p.crashes[:0], r.Crashes...)
}

// delta codes cur relative to prev in mod-2^64 arithmetic: small moves
// in either direction become small zigzag varints, and the decoder's
// prev+delta inverts exactly even across wraparound.
func delta(cur, prev uint64) int64 { return int64(cur - prev) }

// BatchEncoder incrementally builds a v2 batch frame payload under a
// byte budget. Add encodes one report (tentatively — dictionary
// additions roll back if the report doesn't fit) and reports whether it
// was accepted; the agent's adaptive batcher keeps adding until Add
// declines, then ships what fits (flush-on-size). A zero maxBytes means
// no size budget.
type BatchEncoder struct {
	maxBytes int
	dict     pbwire.DictBuilder
	body     pbwire.Encoder
	scratch  pbwire.Encoder
	n        int
	prev     batchPrev
}

// NewBatchEncoder returns an encoder with the given frame-size budget
// in payload bytes (0 = unbounded).
func NewBatchEncoder(maxBytes int) *BatchEncoder {
	return &BatchEncoder{maxBytes: maxBytes}
}

// Len returns the number of reports accepted so far.
func (b *BatchEncoder) Len() int { return b.n }

// Size returns the projected payload size if Finish were called now
// with no spans.
func (b *BatchEncoder) Size() int {
	// version byte + dropped/queueDepth/report-count/span-count varints.
	const overhead = 1 + 5 + 5 + 5 + 5
	return overhead + b.dict.EncodedSize() + b.body.Len()
}

// Add encodes r into the batch. It returns false — leaving the batch
// unchanged — when the batch already holds at least one report and
// adding r would push the payload past the size budget. The first
// report always fits: a poll must make progress even on a report larger
// than the budget.
func (b *BatchEncoder) Add(r *Report) bool {
	mark := b.dict.Mark()
	b.scratch.Reset()
	encodeReportDelta(&b.scratch, &b.dict, &b.prev, r)
	if b.maxBytes > 0 && b.n > 0 && b.Size()+b.scratch.Len() > b.maxBytes {
		b.dict.Rollback(mark)
		return false
	}
	b.body.Append(b.scratch.Bytes())
	b.n++
	b.prev.set(r.MAC.Uint64(), r)
	return true
}

// Finish assembles the frame payload (everything after the frame-type
// byte): version, dropped and queue-depth varints, the shared
// dictionary, the delta-coded report bodies, and the span block.
func (b *BatchEncoder) Finish(dropped, queueDepth uint32, spans []trace.Event) []byte {
	var e pbwire.Encoder
	e.Append([]byte{WireV2})
	e.Varint(uint64(dropped))
	e.Varint(uint64(queueDepth))
	b.dict.Encode(&e)
	e.Varint(uint64(b.n))
	e.Append(b.body.Bytes())
	e.Varint(uint64(len(spans)))
	for _, sp := range spans {
		e.LenBytes(encodeSpan(sp))
	}
	return e.Bytes()
}

// EncodeBatchPayload encodes a BatchFrame in one shot (no size budget)
// — the re-encode path for EncodeMessage and the fuzz round-trip
// property.
func EncodeBatchPayload(f *BatchFrame) []byte {
	be := NewBatchEncoder(0)
	for _, r := range f.Reports {
		be.Add(r)
	}
	return be.Finish(f.Dropped, f.QueueDepth, f.Spans)
}

// encodeReportDelta writes one report body. Field order is fixed
// (DESIGN.md §10): tags would be redundant inside a versioned frame.
// Presence follows v1's proto3 rules — empty user agents and
// zero-length fingerprints are not shipped — so a v1 and a v2 round
// trip of the same report decode to the same struct.
func encodeReportDelta(e *pbwire.Encoder, dict *pbwire.DictBuilder, prev *batchPrev, r *Report) {
	e.Varint(dict.Ref(r.Serial))
	e.Zigzag(delta(r.MAC.Uint64(), prev.mac))
	e.Zigzag(delta(r.Timestamp, prev.ts))
	e.Zigzag(delta(r.SeqNo, prev.seq))
	e.Varint(r.TraceID)

	e.Varint(uint64(len(r.Radios)))
	for j, rs := range r.Radios {
		if j < len(prev.radios) {
			pr := prev.radios[j]
			e.Zigzag(delta(uint64(rs.Band), uint64(pr.Band)))
			e.Zigzag(delta(uint64(rs.Channel), uint64(pr.Channel)))
			e.Zigzag(delta(uint64(rs.WidthMHz), uint64(pr.WidthMHz)))
			e.Zigzag(delta(rs.CycleUS, pr.CycleUS))
			e.Zigzag(delta(rs.RxClearUS, pr.RxClearUS))
			e.Zigzag(delta(rs.Rx11US, pr.Rx11US))
			e.Zigzag(delta(rs.TxUS, pr.TxUS))
		} else {
			e.Varint(uint64(rs.Band))
			e.Varint(uint64(rs.Channel))
			e.Varint(uint64(rs.WidthMHz))
			e.Varint(rs.CycleUS)
			e.Varint(rs.RxClearUS)
			e.Varint(rs.Rx11US)
			e.Varint(rs.TxUS)
		}
	}

	e.Varint(uint64(len(r.Clients)))
	for ci, c := range r.Clients {
		e.Varint(dict.RefBytes(c.MAC[:]))
		e.Varint(uint64(c.Band))
		e.Zigzag(int64(c.RSSIdB))
		caps := c.Caps.Marshal()
		e.Varint(dict.RefBytes(caps[:]))
		uas := 0
		for _, ua := range c.UserAgents {
			if ua != "" {
				uas++
			}
		}
		e.Varint(uint64(uas))
		for _, ua := range c.UserAgents {
			if ua != "" {
				e.Varint(dict.Ref(ua))
			}
		}
		fps := 0
		for _, fp := range c.DHCPFingerprints {
			if len(fp) > 0 {
				fps++
			}
		}
		e.Varint(uint64(fps))
		for _, fp := range c.DHCPFingerprints {
			if len(fp) > 0 {
				e.Varint(dict.RefBytes(fp))
			}
		}
		e.Varint(uint64(len(c.Apps)))
		for ai, a := range c.Apps {
			e.Varint(dict.Ref(a.App))
			// App byte counters are the heaviest integers in a report
			// (cumulative, often multi-GB); delta against the previous
			// report's same-position app when one exists.
			if ci < len(prev.clients) && ai < len(prev.clients[ci].Apps) {
				pa := prev.clients[ci].Apps[ai]
				e.Zigzag(delta(a.UpBytes, pa.UpBytes))
				e.Zigzag(delta(a.DownBytes, pa.DownBytes))
			} else {
				e.Varint(a.UpBytes)
				e.Varint(a.DownBytes)
			}
			e.Varint(uint64(a.Flows))
		}
	}

	e.Varint(uint64(len(r.Neighbors)))
	for _, n := range r.Neighbors {
		e.Varint(dict.RefBytes(n.BSSID[:]))
		e.Varint(dict.Ref(n.SSID))
		e.Varint(uint64(n.Band))
		e.Varint(uint64(n.Channel))
		e.Zigzag(int64(n.RSSIdB))
		e.Varint(dict.Ref(n.Vendor))
	}

	e.Varint(uint64(len(r.LinkWindows)))
	for _, l := range r.LinkWindows {
		e.Varint(dict.RefBytes(l.Peer[:]))
		e.Varint(uint64(l.Band))
		e.Varint(uint64(l.Sent))
		e.Varint(uint64(l.Delivered))
	}

	e.Varint(uint64(len(r.ScanSamples)))
	for _, s := range r.ScanSamples {
		e.Varint(uint64(s.Band))
		e.Varint(uint64(s.Channel))
		e.Varint(uint64(s.BusyPermille))
		e.Varint(uint64(s.DecodablePermille))
	}

	e.Varint(uint64(len(r.Crashes)))
	for ki, c := range r.Crashes {
		// Crash PCs repeat across reports of the same crashing firmware;
		// the timestamp and PC delta against the previous report's
		// same-position crash when one exists.
		if ki < len(prev.crashes) {
			pc := prev.crashes[ki]
			e.Zigzag(delta(c.Timestamp, pc.Timestamp))
			e.Varint(uint64(c.Kind))
			e.Varint(dict.Ref(c.Firmware))
			e.Zigzag(delta(c.PC, pc.PC))
		} else {
			e.Varint(c.Timestamp)
			e.Varint(uint64(c.Kind))
			e.Varint(dict.Ref(c.Firmware))
			e.Varint(c.PC)
		}
		e.Varint(uint64(c.FreeKB))
		e.Varint(uint64(c.NeighborCount))
	}
}

// DecodeBatchFrame decodes a v2 batch payload (everything after the
// frame-type byte). It is the attack surface of the v2 protocol —
// every count, reference, and delta comes off the wire — so it must
// fail cleanly on arbitrary input (FuzzDecodeBatchFrame) and never
// allocate proportionally to an unvalidated count.
func DecodeBatchFrame(payload []byte) (*BatchFrame, error) {
	if len(payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	if payload[0] != WireV2 {
		return nil, fmt.Errorf("%w: %d", ErrBadWireVersion, payload[0])
	}
	f := &BatchFrame{Version: payload[0]}
	d := pbwire.NewDecoder(payload[1:])
	v, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	f.Dropped = uint32(v)
	if v, err = d.Uint64(); err != nil {
		return nil, err
	}
	f.QueueDepth = uint32(v)
	dict, err := pbwire.DecodeDict(d)
	if err != nil {
		return nil, err
	}
	count, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	var prev batchPrev
	for i := uint64(0); i < count; i++ {
		r, err := decodeReportDelta(d, dict, &prev)
		if err != nil {
			return nil, err
		}
		f.Reports = append(f.Reports, r)
	}
	nspans, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nspans; i++ {
		sb, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		sp, err := decodeSpan(sb)
		if err != nil {
			return nil, err
		}
		f.Spans = append(f.Spans, sp)
	}
	if !d.Done() {
		return nil, ErrTrailingBytes
	}
	return f, nil
}

// dictMAC resolves a dictionary reference that must be a 6-byte MAC.
func dictMAC(dict *pbwire.Dict, ref uint64) (dot11.MAC, error) {
	b, err := dict.Bytes(ref)
	if err != nil {
		return dot11.MAC{}, err
	}
	if len(b) != 6 {
		return dot11.MAC{}, ErrBadMACEntry
	}
	var m dot11.MAC
	copy(m[:], b)
	return m, nil
}

// decodeReportDelta mirrors encodeReportDelta, advancing prev so the
// next report's deltas resolve.
func decodeReportDelta(d *pbwire.Decoder, dict *pbwire.Dict, prev *batchPrev) (*Report, error) {
	r := &Report{}
	ref, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	if r.Serial, err = dict.String(ref); err != nil {
		return nil, err
	}
	dv, err := d.Int64()
	if err != nil {
		return nil, err
	}
	mac := prev.mac + uint64(dv)
	r.MAC = dot11.MACFromPacked(mac)
	if dv, err = d.Int64(); err != nil {
		return nil, err
	}
	r.Timestamp = prev.ts + uint64(dv)
	if dv, err = d.Int64(); err != nil {
		return nil, err
	}
	r.SeqNo = prev.seq + uint64(dv)
	if r.TraceID, err = d.Uint64(); err != nil {
		return nil, err
	}

	n, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	for j := uint64(0); j < n; j++ {
		var rs RadioStats
		if int(j) < len(prev.radios) {
			pr := prev.radios[j]
			var ds [7]int64
			for k := range ds {
				if ds[k], err = d.Int64(); err != nil {
					return nil, err
				}
			}
			rs.Band = dot11.Band(uint64(pr.Band) + uint64(ds[0]))
			rs.Channel = int(uint64(pr.Channel) + uint64(ds[1]))
			rs.WidthMHz = int(uint64(pr.WidthMHz) + uint64(ds[2]))
			rs.CycleUS = pr.CycleUS + uint64(ds[3])
			rs.RxClearUS = pr.RxClearUS + uint64(ds[4])
			rs.Rx11US = pr.Rx11US + uint64(ds[5])
			rs.TxUS = pr.TxUS + uint64(ds[6])
		} else {
			var vs [7]uint64
			for k := range vs {
				if vs[k], err = d.Uint64(); err != nil {
					return nil, err
				}
			}
			rs.Band = dot11.Band(vs[0])
			rs.Channel = int(vs[1])
			rs.WidthMHz = int(vs[2])
			rs.CycleUS = vs[3]
			rs.RxClearUS = vs[4]
			rs.Rx11US = vs[5]
			rs.TxUS = vs[6]
		}
		r.Radios = append(r.Radios, rs)
	}

	if n, err = d.Uint64(); err != nil {
		return nil, err
	}
	for j := uint64(0); j < n; j++ {
		var c ClientRecord
		if ref, err = d.Uint64(); err != nil {
			return nil, err
		}
		if c.MAC, err = dictMAC(dict, ref); err != nil {
			return nil, err
		}
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		c.Band = dot11.Band(v)
		sv, err := d.Int64()
		if err != nil {
			return nil, err
		}
		c.RSSIdB = int32(sv)
		if ref, err = d.Uint64(); err != nil {
			return nil, err
		}
		cb, err := dict.Bytes(ref)
		if err != nil {
			return nil, err
		}
		// Mirror v1's tolerance: a capability blob of the wrong length
		// is ignored, not fatal. Ignored means "advertises nothing", in
		// the normalized form every decoded value has, so that
		// re-encoding the record reproduces it.
		c.Caps = dot11.Capabilities{}.Normalize()
		if len(cb) == 2 {
			c.Caps = dot11.UnmarshalCapabilities([2]byte{cb[0], cb[1]})
		}
		if n2, err := d.Uint64(); err != nil {
			return nil, err
		} else {
			for k := uint64(0); k < n2; k++ {
				if ref, err = d.Uint64(); err != nil {
					return nil, err
				}
				s, err := dict.String(ref)
				if err != nil {
					return nil, err
				}
				// Empty entries are skipped on encode (proto3 presence);
				// skip them here too so decode∘encode is stable.
				if s != "" {
					c.UserAgents = append(c.UserAgents, s)
				}
			}
		}
		if n2, err := d.Uint64(); err != nil {
			return nil, err
		} else {
			for k := uint64(0); k < n2; k++ {
				if ref, err = d.Uint64(); err != nil {
					return nil, err
				}
				b, err := dict.Bytes(ref)
				if err != nil {
					return nil, err
				}
				if len(b) == 0 {
					continue
				}
				fp := make([]byte, len(b))
				copy(fp, b)
				c.DHCPFingerprints = append(c.DHCPFingerprints, fp)
			}
		}
		if n2, err := d.Uint64(); err != nil {
			return nil, err
		} else {
			for k := uint64(0); k < n2; k++ {
				var a AppUsageRecord
				if ref, err = d.Uint64(); err != nil {
					return nil, err
				}
				if a.App, err = dict.String(ref); err != nil {
					return nil, err
				}
				if int(j) < len(prev.clients) && int(k) < len(prev.clients[j].Apps) {
					pa := prev.clients[j].Apps[k]
					var du, dd int64
					if du, err = d.Int64(); err != nil {
						return nil, err
					}
					if dd, err = d.Int64(); err != nil {
						return nil, err
					}
					a.UpBytes = pa.UpBytes + uint64(du)
					a.DownBytes = pa.DownBytes + uint64(dd)
				} else {
					if a.UpBytes, err = d.Uint64(); err != nil {
						return nil, err
					}
					if a.DownBytes, err = d.Uint64(); err != nil {
						return nil, err
					}
				}
				if v, err = d.Uint64(); err != nil {
					return nil, err
				}
				a.Flows = uint32(v)
				c.Apps = append(c.Apps, a)
			}
		}
		r.Clients = append(r.Clients, c)
	}

	if n, err = d.Uint64(); err != nil {
		return nil, err
	}
	for j := uint64(0); j < n; j++ {
		var nb NeighborRecord
		if ref, err = d.Uint64(); err != nil {
			return nil, err
		}
		if nb.BSSID, err = dictMAC(dict, ref); err != nil {
			return nil, err
		}
		if ref, err = d.Uint64(); err != nil {
			return nil, err
		}
		if nb.SSID, err = dict.String(ref); err != nil {
			return nil, err
		}
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		nb.Band = dot11.Band(v)
		if v, err = d.Uint64(); err != nil {
			return nil, err
		}
		nb.Channel = int(v)
		sv, err := d.Int64()
		if err != nil {
			return nil, err
		}
		nb.RSSIdB = int32(sv)
		if ref, err = d.Uint64(); err != nil {
			return nil, err
		}
		if nb.Vendor, err = dict.String(ref); err != nil {
			return nil, err
		}
		r.Neighbors = append(r.Neighbors, nb)
	}

	if n, err = d.Uint64(); err != nil {
		return nil, err
	}
	for j := uint64(0); j < n; j++ {
		var l LinkWindow
		if ref, err = d.Uint64(); err != nil {
			return nil, err
		}
		if l.Peer, err = dictMAC(dict, ref); err != nil {
			return nil, err
		}
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		l.Band = dot11.Band(v)
		if v, err = d.Uint64(); err != nil {
			return nil, err
		}
		l.Sent = uint32(v)
		if v, err = d.Uint64(); err != nil {
			return nil, err
		}
		l.Delivered = uint32(v)
		r.LinkWindows = append(r.LinkWindows, l)
	}

	if n, err = d.Uint64(); err != nil {
		return nil, err
	}
	for j := uint64(0); j < n; j++ {
		var s ScanSample
		var vs [4]uint64
		for k := range vs {
			if vs[k], err = d.Uint64(); err != nil {
				return nil, err
			}
		}
		s.Band = dot11.Band(vs[0])
		s.Channel = int(vs[1])
		s.BusyPermille = uint32(vs[2])
		s.DecodablePermille = uint32(vs[3])
		r.ScanSamples = append(r.ScanSamples, s)
	}

	if n, err = d.Uint64(); err != nil {
		return nil, err
	}
	for j := uint64(0); j < n; j++ {
		var c CrashRecord
		deltaCoded := int(j) < len(prev.crashes)
		if deltaCoded {
			dv, err := d.Int64()
			if err != nil {
				return nil, err
			}
			c.Timestamp = prev.crashes[j].Timestamp + uint64(dv)
		} else if c.Timestamp, err = d.Uint64(); err != nil {
			return nil, err
		}
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		c.Kind = uint8(v)
		if ref, err = d.Uint64(); err != nil {
			return nil, err
		}
		if c.Firmware, err = dict.String(ref); err != nil {
			return nil, err
		}
		if deltaCoded {
			dv, err := d.Int64()
			if err != nil {
				return nil, err
			}
			c.PC = prev.crashes[j].PC + uint64(dv)
		} else if c.PC, err = d.Uint64(); err != nil {
			return nil, err
		}
		if v, err = d.Uint64(); err != nil {
			return nil, err
		}
		c.FreeKB = uint32(v)
		if v, err = d.Uint64(); err != nil {
			return nil, err
		}
		c.NeighborCount = uint32(v)
		r.Crashes = append(r.Crashes, c)
	}

	prev.set(mac, r)
	return r, nil
}
