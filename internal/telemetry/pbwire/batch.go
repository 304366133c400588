// The v2 batch-frame primitives: untagged varints and a per-batch
// shared dictionary. The v1 report schema is plain protobuf — every
// field tagged, every string shipped inline — which is robust but
// redundant inside a harvest batch, where consecutive reports from one
// device repeat the serial, the MAC universe, the user-agent strings,
// and near-identical monotone counters. Wire v2 keeps pbwire's varint
// vocabulary but drops the tags: fields travel untagged in a fixed
// order, integers as deltas against the previous report, and every
// string or byte blob as a small reference into a dictionary shared by
// the whole batch. The layer here is byte-level only; the
// report-specific delta rules live in internal/telemetry (batchwire.go)
// and the layout in DESIGN.md §10.

package pbwire

import "errors"

// MaxDictEntries bounds a batch dictionary. A decoder must refuse a
// dictionary that declares more entries — an attacker-controlled count
// must not translate into unbounded allocation ("dictionary overflow",
// exercised by FuzzDecodeBatchFrame's seed corpus).
const MaxDictEntries = 1 << 16

// Batch decoding errors.
var (
	ErrDictOverflow = errors.New("pbwire: dictionary exceeds entry limit")
	ErrBadDictRef   = errors.New("pbwire: dictionary reference out of range")
)

// Varint appends an untagged varint — the v2 batch body is a fixed
// field order, so tags would be pure overhead.
func (e *Encoder) Varint(v uint64) { e.varint(v) }

// Zigzag appends an untagged zigzag-encoded signed varint, the delta
// encoding for fields that can move both ways (timestamps after an
// agent clock step, RSSI, counter resets).
func (e *Encoder) Zigzag(v int64) { e.varint(uint64(v<<1) ^ uint64(v>>63)) }

// LenBytes appends an untagged length-prefixed byte string.
func (e *Encoder) LenBytes(b []byte) {
	e.varint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Append writes raw bytes (an already-encoded sub-block).
func (e *Encoder) Append(b []byte) { e.buf = append(e.buf, b...) }

// DictBuilder assigns dense references to byte strings in first-use
// order while a batch is encoded. Ref is stable for the builder's
// lifetime, so the decoder can resolve references while reading the
// batch body sequentially.
type DictBuilder struct {
	ids     map[string]uint64
	entries []string
	bytes   int // sum of entry lengths, for size accounting
}

// Ref returns the dictionary reference for s, assigning the next free
// slot on first use.
func (b *DictBuilder) Ref(s string) uint64 {
	if id, ok := b.ids[s]; ok {
		return id
	}
	if b.ids == nil {
		b.ids = make(map[string]uint64)
	}
	id := uint64(len(b.entries))
	b.ids[s] = id
	b.entries = append(b.entries, s)
	b.bytes += len(s)
	return id
}

// RefBytes is Ref for a byte slice key.
func (b *DictBuilder) RefBytes(p []byte) uint64 { return b.Ref(string(p)) }

// Mark returns a rollback point: the current entry count.
func (b *DictBuilder) Mark() int { return len(b.entries) }

// Rollback discards every entry assigned at or after mark — how a batch
// encoder un-reserves the dictionary additions of a report that turned
// out not to fit the size budget.
func (b *DictBuilder) Rollback(mark int) {
	for _, s := range b.entries[mark:] {
		b.bytes -= len(s)
		delete(b.ids, s)
	}
	b.entries = b.entries[:mark]
}

// EncodedSize returns an upper bound on the encoded dictionary block:
// count varint plus, per entry, a length varint and the bytes.
func (b *DictBuilder) EncodedSize() int {
	// 5 bytes generously covers any realistic length varint.
	return 5 + b.bytes + 5*len(b.entries)
}

// Encode writes the dictionary block: entry count, then each entry
// length-prefixed, in reference order.
func (b *DictBuilder) Encode(e *Encoder) {
	e.Varint(uint64(len(b.entries)))
	for _, s := range b.entries {
		e.LenBytes([]byte(s))
	}
}

// Dict is the decoded dictionary of one batch, bound to the decoder
// it was read from: each resolver reads a reference from that decoder
// and fails it with ErrBadDictRef when the reference is out of range.
// An entry is a view of the decoder's input until String or Clone
// first resolves it; each copies the entry out at most once, so every
// reference in the batch shares that one copy and none pins or
// aliases the input buffer. Resolving writes the entry, so a Dict is
// for one goroutine.
type Dict struct {
	dec     *Decoder
	entries []dictEntry
}

type dictEntry struct {
	raw   []byte // view of the input
	str   string // raw copied out by String
	owned []byte // raw copied out by Clone
}

// Decode reads a dictionary block from d into dict and binds dict to
// d. The declared count is checked against MaxDictEntries and against
// the unread input (each entry's length prefix takes at least one
// byte) before any allocation proportional to it. The entry slice of
// an earlier Decode is reused when it is large enough; every entry is
// overwritten whole, so nothing an earlier batch resolved survives
// into this one.
func (dict *Dict) Decode(d *Decoder) {
	n := d.Uint64()
	if n > MaxDictEntries {
		d.Fail(ErrDictOverflow)
	} else if n > uint64(d.Remaining()) {
		d.Fail(ErrTruncated)
	}
	dict.dec = d
	if d.err != nil {
		dict.entries = dict.entries[:0]
		return
	}
	if uint64(cap(dict.entries)) < n {
		dict.entries = make([]dictEntry, n)
	}
	dict.entries = dict.entries[:n]
	for i := range dict.entries {
		dict.entries[i] = dictEntry{raw: d.Bytes()}
	}
}

// entry reads a reference and resolves it, nil when the read failed.
func (d *Dict) entry() *dictEntry {
	ref := d.dec.Uint64()
	if ref >= uint64(len(d.entries)) {
		d.dec.Fail(ErrBadDictRef)
	}
	if d.dec.err != nil {
		return nil
	}
	return &d.entries[ref]
}

// Bytes reads a reference and resolves it to a view of the decoder's
// input buffer.
func (d *Dict) Bytes() []byte {
	if e := d.entry(); e != nil {
		return e.raw
	}
	return nil
}

// String reads a reference and resolves it as a string: the entry's
// one copy, made on its first reference.
func (d *Dict) String() string {
	e := d.entry()
	if e == nil {
		return ""
	}
	if e.str == "" && len(e.raw) > 0 {
		e.str = string(e.raw)
	}
	return e.str
}

// Clone reads a reference and resolves it as bytes: the entry's one
// copy, made on its first reference and shared by every later one, so
// callers must not write through it. Its capacity equals its length,
// so an append reallocates rather than growing into shared memory. An
// empty entry resolves to nil.
func (d *Dict) Clone() []byte {
	e := d.entry()
	if e == nil {
		return nil
	}
	if e.owned == nil && len(e.raw) > 0 {
		e.owned = make([]byte, len(e.raw))
		copy(e.owned, e.raw)
	}
	return e.owned
}
