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
// frame-type byte) with a decoder of its own, so the result shares
// nothing with any other call: new(BatchDecoder).Decode(payload).
func DecodeBatchFrame(payload []byte) (*BatchFrame, error) {
	return new(BatchDecoder).Decode(payload)
}

// BatchDecoder decodes v2 batch payloads into an arena it keeps
// between calls: the report array, one slab per record kind, and the
// dictionary's entry slice. A harvest drain decodes batch after batch
// of near-identical shape, so a reused decoder allocates only the
// batch's strings and fingerprints once it has seen one batch. The
// zero value is ready to use; a BatchDecoder is for one goroutine.
//
// Decode is the attack surface of the v2 protocol — every count,
// reference, and delta comes off the wire — so it must fail cleanly on
// arbitrary input (FuzzDecodeBatchFrame) and never allocate
// proportionally to an unvalidated count. A count the unread input
// cannot hold fails as truncation before anything is allocated for it,
// and a fresh decoder's call (DecodeBatchFrame) allocates at most k =
// 256 bytes per payload byte plus a small constant: a record decodes
// to at most 120 bytes per byte of its smallest encoding (a trace
// span, one byte), and a fresh backing array is clamped to the records
// the unread input can hold. A slab an earlier call outgrew is
// enlarged at the start of the next call, to what that earlier call
// used, so a decoder used once never pays for an array it will not
// reuse.
//
// The decoded reports point nowhere into payload. Each dictionary
// string or fingerprint is copied out once per batch, shared by every
// reference to it, and never reused. Everything else — the reports and
// each list inside them — is valid until this decoder's next Decode,
// which overwrites it. Each list is a capacity-capped window onto a
// slab, so an append to one report's list never writes into a
// neighbour's.
type BatchDecoder struct {
	d       pbwire.Decoder
	dict    pbwire.Dict
	prev    batchPrev
	reports []Report
	ptrs    []*Report

	radios  slab[RadioStats]
	clients slab[ClientRecord]
	uas     slab[string]
	fps     slab[[]byte]
	apps    slab[AppUsageRecord]
	neigh   slab[NeighborRecord]
	links   slab[LinkWindow]
	scans   slab[ScanSample]
	crashes slab[CrashRecord]
}

// Decode decodes one batch payload into the decoder's arena, ending
// the lifetime of the previous Decode's reports.
func (b *BatchDecoder) Decode(payload []byte) (*BatchFrame, error) {
	if len(payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	if payload[0] != WireV2 {
		return nil, fmt.Errorf("%w: %d", ErrBadWireVersion, payload[0])
	}
	b.reset(payload[1:])
	f := &BatchFrame{Version: payload[0]}
	f.Dropped = uint32(b.d.Uint64())
	f.QueueDepth = uint32(b.d.Uint64())
	b.dict.Decode(&b.d)
	if n := b.count(minReportBytes); n > 0 {
		if len(b.reports) < n {
			b.reports = make([]Report, n)
			b.ptrs = make([]*Report, n)
		}
		for i := range n {
			rep := &b.reports[i]
			b.report(rep, n-i)
			b.ptrs[i] = rep
		}
		f.Reports = b.ptrs[:n:n]
	}
	if n := b.count(1); n > 0 {
		f.Spans = make([]trace.Event, n)
		for i := range f.Spans {
			f.Spans[i] = decodeSpan(b.d.Message())
		}
	}
	if b.d.More() {
		b.d.Fail(ErrTrailingBytes)
	}
	if err := b.d.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// reset readies the arena for a payload body: every slab rewinds to
// its start, grown first to what the last Decode carved from it.
func (b *BatchDecoder) reset(body []byte) {
	b.d.Reset(body)
	b.prev.set(0, &Report{}) // the first report's deltas start from zero
	b.radios.reset()
	b.clients.reset()
	b.uas.reset()
	b.fps.reset()
	b.apps.reset()
	b.neigh.reset()
	b.links.reset()
	b.scans.reset()
	b.crashes.reset()
}

// minReportBytes is the smallest report body: eleven one-byte varints.
const minReportBytes = 11

// slab is one record kind's arena: buf is the backing array kept
// between decodes, free the unused tail lists are carved from, and
// used the records carved since the last reset.
type slab[T any] struct {
	buf, free []T
	used      int
}

// reset rewinds the slab, first growing buf to the last decode's use
// when that decode outgrew it.
func (s *slab[T]) reset() {
	if s.used > len(s.buf) {
		s.buf = make([]T, s.used)
	}
	s.free, s.used = s.buf, 0
}

// next reads a field coded as a zigzag delta against base, or plainly.
func (b *BatchDecoder) next(base uint64, delta bool) uint64 {
	if delta {
		return base + uint64(b.d.Int64())
	}
	return b.d.Uint64()
}

// mac resolves a dictionary reference that must be a 6-byte MAC.
func (b *BatchDecoder) mac() (m dot11.MAC) {
	if v := b.dict.Bytes(); len(v) == len(m) {
		copy(m[:], v)
	} else {
		b.d.Fail(ErrBadMACEntry)
	}
	return m
}

// count reads a list count whose elements each encode to at least
// minSize bytes; a count the unread input cannot hold is truncation.
func (b *BatchDecoder) count(minSize int) int {
	n := b.d.Uint64()
	if n > uint64(b.d.Remaining()/minSize) {
		b.d.Fail(pbwire.ErrTruncated)
		return 0
	}
	return int(n)
}

// list reads a list count and carves the list from s's free tail, nil
// when the count is zero. The result's capacity is its length. A tail
// too short gets a fresh backing array sized for lists more lists of
// this length, clamped to what the unread input holds.
func list[T any](b *BatchDecoder, s *slab[T], minSize, lists int) []T {
	n := b.count(minSize)
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		size := b.d.Remaining() / minSize
		if lists > 0 && lists <= size/n {
			size = n * lists
		}
		s.free = make([]T, size)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.used += n
	return out
}

// trim keeps a carved list's first k elements, nil when k is 0.
func trim[T any](s []T, k int) []T {
	if k == 0 {
		return nil
	}
	return s[:k:k]
}

// report mirrors encodeReportDelta into rep, advancing b.prev so the
// next report's deltas resolve. left counts the batch's reports from
// this one on, to size fresh backing arrays.
func (b *BatchDecoder) report(rep *Report, left int) {
	prev := &b.prev
	rep.Serial = b.dict.String()
	mac := prev.mac + uint64(b.d.Int64())
	rep.MAC = dot11.MACFromPacked(mac)
	rep.Timestamp = prev.ts + uint64(b.d.Int64())
	rep.SeqNo = prev.seq + uint64(b.d.Int64())
	rep.TraceID = b.d.Uint64()

	rep.Radios = list(b, &b.radios, 7, left)
	for j := range rep.Radios {
		rs, dc := &rep.Radios[j], j < len(prev.radios)
		var pr RadioStats
		if dc {
			pr = prev.radios[j]
		}
		rs.Band = dot11.Band(b.next(uint64(pr.Band), dc))
		rs.Channel = int(b.next(uint64(pr.Channel), dc))
		rs.WidthMHz = int(b.next(uint64(pr.WidthMHz), dc))
		rs.CycleUS = b.next(pr.CycleUS, dc)
		rs.RxClearUS = b.next(pr.RxClearUS, dc)
		rs.Rx11US = b.next(pr.Rx11US, dc)
		rs.TxUS = b.next(pr.TxUS, dc)
	}

	rep.Clients = list(b, &b.clients, 7, left)
	for j := range rep.Clients {
		c := &rep.Clients[j]
		c.MAC = b.mac()
		c.Band = dot11.Band(b.d.Uint64())
		c.RSSIdB = int32(b.d.Int64())
		// Mirror v1's tolerance: a capability blob of the wrong length
		// is ignored, not fatal. Ignored means "advertises nothing", in
		// the normalized form every decoded value has, so that
		// re-encoding the record reproduces it.
		c.Caps = dot11.Capabilities{}.Normalize()
		if cb := b.dict.Bytes(); len(cb) == 2 {
			c.Caps = dot11.UnmarshalCapabilities([2]byte{cb[0], cb[1]})
		}
		// Empty user agents and fingerprints are skipped on encode
		// (proto3 presence); skip them here too so decode∘encode is
		// stable.
		more := len(rep.Clients)*left - j // client lists still to come
		uas, k := list(b, &b.uas, 1, more), 0
		for range uas {
			if s := b.dict.String(); s != "" {
				uas[k] = s
				k++
			}
		}
		c.UserAgents = trim(uas, k)
		fps, k := list(b, &b.fps, 1, more), 0
		for range fps {
			if b := b.dict.Clone(); len(b) > 0 {
				fps[k] = b
				k++
			}
		}
		c.DHCPFingerprints = trim(fps, k)
		c.Apps = list(b, &b.apps, 4, more)
		for k := range c.Apps {
			// App byte counters are the heaviest integers in a report;
			// they delta against the previous report's same-position app.
			a, dc := &c.Apps[k], j < len(prev.clients) && k < len(prev.clients[j].Apps)
			var pa AppUsageRecord
			if dc {
				pa = prev.clients[j].Apps[k]
			}
			a.App = b.dict.String()
			a.UpBytes = b.next(pa.UpBytes, dc)
			a.DownBytes = b.next(pa.DownBytes, dc)
			a.Flows = uint32(b.d.Uint64())
		}
	}

	rep.Neighbors = list(b, &b.neigh, 6, left)
	for j := range rep.Neighbors {
		nb := &rep.Neighbors[j]
		nb.BSSID = b.mac()
		nb.SSID = b.dict.String()
		nb.Band = dot11.Band(b.d.Uint64())
		nb.Channel = int(b.d.Uint64())
		nb.RSSIdB = int32(b.d.Int64())
		nb.Vendor = b.dict.String()
	}

	rep.LinkWindows = list(b, &b.links, 4, left)
	for j := range rep.LinkWindows {
		l := &rep.LinkWindows[j]
		l.Peer = b.mac()
		l.Band = dot11.Band(b.d.Uint64())
		l.Sent = uint32(b.d.Uint64())
		l.Delivered = uint32(b.d.Uint64())
	}

	rep.ScanSamples = list(b, &b.scans, 4, left)
	for j := range rep.ScanSamples {
		s := &rep.ScanSamples[j]
		s.Band = dot11.Band(b.d.Uint64())
		s.Channel = int(b.d.Uint64())
		s.BusyPermille = uint32(b.d.Uint64())
		s.DecodablePermille = uint32(b.d.Uint64())
	}

	rep.Crashes = list(b, &b.crashes, 6, left)
	for j := range rep.Crashes {
		c, dc := &rep.Crashes[j], j < len(prev.crashes)
		var pc CrashRecord
		if dc {
			pc = prev.crashes[j]
		}
		c.Timestamp = b.next(pc.Timestamp, dc)
		c.Kind = uint8(b.d.Uint64())
		c.Firmware = b.dict.String()
		c.PC = b.next(pc.PC, dc)
		c.FreeKB = uint32(b.d.Uint64())
		c.NeighborCount = uint32(b.d.Uint64())
	}

	prev.set(mac, rep)
}
