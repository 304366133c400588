package backend

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wlanscale/internal/dot11"
	"wlanscale/internal/obs"
	"wlanscale/internal/telemetry"
)

// Digest returns a SHA-256 over everything the store holds — client
// aggregates, dedup high-water marks and every device series — composed
// per partition: one "<id> <hex>" line per network partition that holds
// data, in network ID order, then "- <hex>" for the serials no network
// parses, each line ending in a newline, where hex is that partition's
// own sum (Digests lists the lines). Two stores with the same contents
// digest identically regardless of shard count, ingestion interleaving
// across serials, or map iteration order — per-serial series order
// still matters, as it does for analyses. The crash-recovery proof
// harness compares a recovered daemon's digest against a never-crashed
// control run's; merakid serves it as the "digest" query, and a cluster
// composes the same value from its shards' lines (ComposeDigest).
//
// A partition's sum is SHA-256 over a canonical dump of its entries.
// Set-like fields (user agents, DHCP fingerprints) are sorted into the
// dump because their in-memory order depends on which AP's report
// arrived first when several APs see one client; clients are dumped by
// MAC.
//
// Ingest waits only for copying the entries (captureSums), never for
// hashing: the copy is a cut between two reports, and the sums are
// computed from it with no lock held.
func (s *Store) Digest() string {
	sums := s.captureSums(nil, true)
	sp := obs.StartSpan(s.digestDur)
	defer sp.End()
	d := newDump()
	for i := range hashSums(sums, d) {
		d.b = append(sums[i].appendLine(d.b), '\n')
		d.flush()
	}
	return d.sum()
}

// Digests returns the digest lines of the networks in ids (every network
// for nil ids) and, when unparsed is set, of the serials no network
// parses, in Digest's order and format without the newlines. A partition
// that holds nothing has no line. merakid serves them as the "digests"
// query, which a cluster composes into its merged digest and the
// rebalance verify gate compares across shards.
func (s *Store) Digests(ids map[uint64]bool, unparsed bool) []string {
	sums := s.captureSums(ids, unparsed)
	sp := obs.StartSpan(s.digestDur)
	defer sp.End()
	lines := make([]string, len(sums))
	for i := range hashSums(sums, newDump()) {
		lines[i] = string(sums[i].appendLine(nil))
	}
	return lines
}

// ComposeDigest returns the digest of a store whose Digests lines,
// sorted as Digests sorts them, are lines.
func ComposeDigest(lines []string) string {
	d := newDump()
	for _, ln := range lines {
		d.str(ln).str("\n").flush()
	}
	return d.sum()
}

// UnparsedPartition is the key of the serials no network parses in a
// digest line.
const UnparsedPartition = "-"

// partSum is one partition's line in a digest: the copy of its entries
// taken under the lock, then their sum.
type partSum struct {
	id  uint64
	ok  bool // false: the partition of serials no network parses
	v   partView
	sum [sha256.Size]byte
}

// appendLine appends ps's line, without the newline.
func (ps *partSum) appendLine(b []byte) []byte {
	if ps.ok {
		b = strconv.AppendUint(b, ps.id, 10)
	} else {
		b = append(b, UnparsedPartition...)
	}
	return hex.AppendEncode(append(b, ' '), ps.sum[:])
}

// partView is one partition's entries as a digest hashes them: sortable
// slices of copies, taken by capture's rules.
type partView struct {
	clients   []ClientAggregate
	seen      []keyed[uint64]
	radio     []keyed[[]RadioSample]
	scans     []keyed[[]ScanPoint]
	crashes   []keyed[[]telemetry.CrashRecord]
	neighbors []keyed[[]NeighborEntry]
	links     []LinkSeries
}

type keyed[V any] struct {
	serial string
	v      V
}

// captureSums copies the entries of the networks in ids (every network
// for nil ids) and, when unparsed is set, of the serials no network
// parses, one partSum per partition that holds data. The lock is held
// only for the copy — into one backing array per kind, sized first, so a
// digest of a thousand partitions allocates as few arrays as one of a
// single partition. Each partition's view is a slice of those arrays.
func (s *Store) captureSums(ids map[uint64]bool, unparsed bool) []partSum {
	s.mu.Lock()
	sp := obs.StartSpan(s.holdDur)
	defer sp.End()
	defer s.mu.Unlock()
	sums := make([]partSum, 0, cmp.Or(len(ids), len(s.parts))+1)
	parts := make([]*partition, 0, cap(sums))
	var n [7]int
	nbrs := 0
	add := func(id uint64, ok bool, p *partition) {
		if p == nil || p.entries() == 0 {
			return
		}
		sums = append(sums, partSum{id: id, ok: ok})
		parts = append(parts, p)
		for k, l := range []int{len(p.clients), len(p.seen), len(p.radio), len(p.scans), len(p.crashes), len(p.neighbors), len(p.links)} {
			n[k] += l
		}
		for _, m := range p.neighbors {
			nbrs += len(m)
		}
	}
	if ids == nil {
		for id, p := range s.parts {
			add(id, true, p)
		}
	}
	for id := range ids {
		add(id, true, s.parts[id])
	}
	if unparsed {
		add(0, false, s.unparsed)
	}

	all := partView{
		clients: make([]ClientAggregate, 0, n[0]), seen: make([]keyed[uint64], 0, n[1]),
		radio: make([]keyed[[]RadioSample], 0, n[2]), scans: make([]keyed[[]ScanPoint], 0, n[3]),
		crashes: make([]keyed[[]telemetry.CrashRecord], 0, n[4]), neighbors: make([]keyed[[]NeighborEntry], 0, n[5]),
		links: make([]LinkSeries, 0, n[6]),
	}
	entries := make([]NeighborEntry, 0, nbrs)
	for i, p := range parts {
		v := &sums[i].v
		from := len(all.clients)
		for _, a := range p.clients {
			all.clients = append(all.clients, copyClient(a))
		}
		v.clients = all.clients[from:]
		v.seen = keyedTail(&all.seen, p.seen)
		v.radio = keyedTail(&all.radio, p.radio)
		v.scans = keyedTail(&all.scans, p.scans)
		v.crashes = keyedTail(&all.crashes, p.crashes)
		from = len(all.neighbors)
		for serial, m := range p.neighbors {
			at := len(entries)
			for _, e := range m {
				entries = append(entries, e)
			}
			all.neighbors = append(all.neighbors, keyed[[]NeighborEntry]{serial, entries[at:]})
		}
		v.neighbors = all.neighbors[from:]
		from = len(all.links)
		for k, l := range p.links {
			all.links = append(all.links, LinkSeries{Key: k, Sent: l.Sent, Deliver: l.Deliver})
		}
		v.links = all.links[from:]
	}
	return sums
}

// keyedTail appends m's entries to *all and returns them. A series is
// copied as its header: the live store only appends past it.
func keyedTail[V any](all *[]keyed[V], m map[string]V) []keyed[V] {
	from := len(*all)
	for serial, v := range m {
		*all = append(*all, keyed[V]{serial, v})
	}
	return (*all)[from:]
}

// hashSums hashes every partition of sums through d and returns sums in
// Digest's order.
func hashSums(sums []partSum, d *digestDump) []partSum {
	for i := range sums {
		sums[i].sum = sums[i].v.hash(d)
	}
	slices.SortFunc(sums, func(a, b partSum) int {
		switch {
		case a.ok == b.ok:
			return cmp.Compare(a.id, b.id)
		case a.ok:
			return -1
		}
		return 1
	})
	return sums
}

// digestDump feeds a canonical dump to the hash through one buffer that
// is reused for every line. Its append methods chain, so a line reads in
// the order of the format string it stands for.
type digestDump struct {
	h hash.Hash
	b []byte
	// uas and fps are scratch space for sorting a client's sets.
	uas []string
	fps [][]byte
}

func newDump() *digestDump { return &digestDump{h: sha256.New(), b: make([]byte, 0, 1<<16)} }

// flush hands the buffered lines to the hash once enough have
// accumulated to amortize the call.
func (d *digestDump) flush() {
	if len(d.b) >= 1<<15 {
		d.h.Write(d.b)
		d.b = d.b[:0]
	}
}

// sum hashes what is buffered and returns the hex digest of the dump,
// leaving the hash and the buffer empty for the next one.
func (d *digestDump) sum() string {
	d.h.Write(d.b)
	d.b = d.b[:0]
	defer d.h.Reset()
	return hex.EncodeToString(d.h.Sum(nil))
}

func (d *digestDump) str(s string) *digestDump  { d.b = append(d.b, s...); return d }
func (d *digestDump) uint(v uint64) *digestDump { d.b = strconv.AppendUint(d.b, v, 10); return d }
func (d *digestDump) int(v int64) *digestDump   { d.b = strconv.AppendInt(d.b, v, 10); return d }
func (d *digestDump) hex(v []byte) *digestDump  { d.b = hex.AppendEncode(d.b, v); return d }

// float appends v as fmt's %g renders it.
func (d *digestDump) float(v float64) *digestDump {
	d.b = strconv.AppendFloat(d.b, v, 'g', -1, 64)
	return d
}

// mac appends m as dot11.MAC.String renders it.
func (d *digestDump) mac(m dot11.MAC) *digestDump {
	const digits = "0123456789abcdef"
	for i, o := range m {
		if i > 0 {
			d.b = append(d.b, ':')
		}
		d.b = append(d.b, digits[o>>4], digits[o&0xf])
	}
	return d
}

// uint32s appends v as fmt's %v renders a []uint32.
func (d *digestDump) uint32s(v []uint32) *digestDump {
	d.b = append(d.b, '[')
	for i, x := range v {
		if i > 0 {
			d.b = append(d.b, ' ')
		}
		d.uint(uint64(x))
	}
	d.b = append(d.b, ']')
	return d
}

func bySerial[V any](a, b keyed[V]) int { return strings.Compare(a.serial, b.serial) }

// hash sorts v in place and returns the SHA-256 of its dump. The byte
// stream is the contract — every digest-equivalence proof compares its
// hash across builds — and TestDigestByteStream holds it to a fmt-based
// rendering.
func (v *partView) hash(d *digestDump) (sum [sha256.Size]byte) {
	slices.SortFunc(v.clients, func(a, b ClientAggregate) int { return cmp.Compare(a.MAC.Uint64(), b.MAC.Uint64()) })
	for i := range v.clients {
		c := &v.clients[i]
		caps := c.Caps.Marshal()
		d.str("client ").mac(c.MAC).str(" band=").uint(uint64(c.Band)).str(" rssi=").int(int64(c.RSSIdB)).
			str(" caps=").hex(caps[:]).str("\n")
		for j := range c.Apps {
			a := &c.Apps[j]
			d.str(" app ").str(a.App).str(" up=").uint(a.UpBytes).str(" down=").uint(a.DownBytes).
				str(" flows=").uint(uint64(a.Flows)).str("\n")
		}
		d.uas = append(d.uas[:0], c.UserAgents...)
		sort.Strings(d.uas)
		for _, ua := range d.uas {
			d.str(" ua ").str(ua).str("\n")
		}
		// Byte order is the order of the hex renderings.
		d.fps = append(d.fps[:0], c.DHCPFingerprints...)
		slices.SortFunc(d.fps, bytes.Compare)
		for _, fp := range d.fps {
			d.str(" fp ").hex(fp).str("\n")
		}
		for _, serial := range c.APs {
			d.str(" ap ").str(serial).str("\n")
		}
		d.flush()
	}

	slices.SortFunc(v.seen, bySerial)
	for _, e := range v.seen {
		d.str("seen ").str(e.serial).str(" ").uint(e.v).str("\n")
	}
	slices.SortFunc(v.radio, bySerial)
	for _, e := range v.radio {
		d.str("radio ").str(e.serial)
		for _, r := range e.v {
			d.str(" ").uint(r.Timestamp).str("/").uint(uint64(r.Band)).str("/").int(int64(r.Channel)).
				str("/").float(r.Busy).str("/").float(r.Decodable).str("/").float(r.Tx)
		}
		d.str("\n").flush()
	}
	slices.SortFunc(v.scans, bySerial)
	for _, e := range v.scans {
		d.str("scan ").str(e.serial)
		for _, p := range e.v {
			d.str(" ").uint(p.Timestamp).str("/").uint(uint64(p.Band)).str("/").int(int64(p.Channel)).
				str("/").float(p.Busy).str("/").float(p.Decodable)
		}
		d.str("\n").flush()
	}
	slices.SortFunc(v.crashes, bySerial)
	for _, e := range v.crashes {
		d.str("crash ").str(e.serial)
		for _, c := range e.v {
			d.str(" ").uint(c.Timestamp).str("/").uint(uint64(c.Kind)).str("/").str(c.Firmware).str("/")
			d.b = strconv.AppendUint(d.b, c.PC, 16)
			d.str("/").uint(uint64(c.FreeKB)).str("/").uint(uint64(c.NeighborCount))
		}
		d.str("\n").flush()
	}
	slices.SortFunc(v.neighbors, bySerial)
	for _, e := range v.neighbors {
		slices.SortFunc(e.v, func(a, b NeighborEntry) int { return cmp.Compare(a.BSSID.Uint64(), b.BSSID.Uint64()) })
		d.str("neigh ").str(e.serial)
		for _, n := range e.v {
			d.str(" ").mac(n.BSSID).str("/").str(n.SSID).str("/").uint(uint64(n.Band)).str("/").int(int64(n.Channel)).
				str("/").int(int64(n.RSSIdB)).str("/").str(n.Vendor)
		}
		d.str("\n").flush()
	}
	slices.SortFunc(v.links, func(a, b LinkSeries) int { return compareLinkKey(a.Key, b.Key) })
	for i := range v.links {
		l := &v.links[i]
		d.str("link ").str(l.Key.From).str("->").mac(l.Key.To).str(" band=").uint(uint64(l.Key.Band)).
			str(" sent=").uint32s(l.Sent).str(" del=").uint32s(l.Deliver).str("\n").flush()
	}

	d.h.Write(d.b)
	copy(sum[:], d.h.Sum(d.b[:0]))
	d.b = d.b[:0]
	d.h.Reset()
	return sum
}
