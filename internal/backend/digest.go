package backend

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"slices"
	"sort"
	"strconv"

	"wlanscale/internal/dot11"
	"wlanscale/internal/obs"
)

// Digest returns a SHA-256 over a canonical dump of everything the
// store holds: client aggregates, dedup high-water marks, and every
// device series. Two stores with the same contents digest identically
// regardless of shard count, ingestion interleaving across serials, or
// map iteration order — per-serial series order still matters, as it
// does for analyses. The crash-recovery proof harness compares a
// recovered daemon's digest against a never-crashed control run's;
// merakid serves it as the "digest" query.
//
// Set-like fields (user agents, DHCP fingerprints) are sorted into the
// dump because their in-memory order depends on which AP's report
// arrived first when several APs see one client.
//
// The dump is of a capture, so it describes the store between two
// reports, and ingest waits only for the capture, not for the hashing.
func (s *Store) Digest() string {
	snap := s.capture()
	sp := obs.StartSpan(s.digestDur)
	defer sp.End()
	return snap.digest()
}

// digestDump feeds the canonical dump to the hash through one buffer
// that is reused for every line. Its append methods chain, so a line
// reads in the order of the format string it stands for.
type digestDump struct {
	h hash.Hash
	b []byte
}

// flush hands the buffered lines to the hash once enough have
// accumulated to amortize the call.
func (d *digestDump) flush() {
	if len(d.b) >= 1<<15 {
		d.h.Write(d.b)
		d.b = d.b[:0]
	}
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

// digest is Digest's dump and hash. The byte stream is the contract —
// every digest-equivalence proof compares its hash across builds — and
// TestDigestByteStream holds it to the fmt-based rendering it replaced.
func (snap *snapshot) digest() string {
	d := &digestDump{h: sha256.New(), b: make([]byte, 0, 1<<16)}

	var uas []string
	var fps [][]byte
	for i := range snap.ClientList {
		c := &snap.ClientList[i]
		caps := c.Caps.Marshal()
		d.str("client ").mac(c.MAC).str(" band=").uint(uint64(c.Band)).str(" rssi=").int(int64(c.RSSIdB)).
			str(" caps=").hex(caps[:]).str("\n")
		for j := range c.Apps {
			a := &c.Apps[j]
			d.str(" app ").str(a.App).str(" up=").uint(a.UpBytes).str(" down=").uint(a.DownBytes).
				str(" flows=").uint(uint64(a.Flows)).str("\n")
		}
		uas = append(uas[:0], c.UserAgents...)
		sort.Strings(uas)
		for _, ua := range uas {
			d.str(" ua ").str(ua).str("\n")
		}
		// Byte order is the order of the hex renderings.
		fps = append(fps[:0], c.DHCPFingerprints...)
		slices.SortFunc(fps, bytes.Compare)
		for _, fp := range fps {
			d.str(" fp ").hex(fp).str("\n")
		}
		for _, serial := range c.APs {
			d.str(" ap ").str(serial).str("\n")
		}
		d.flush()
	}

	for _, serial := range sortedKeys(snap.Seen) {
		d.str("seen ").str(serial).str(" ").uint(snap.Seen[serial]).str("\n")
	}
	for _, serial := range sortedKeys(snap.Radio) {
		d.str("radio ").str(serial)
		for _, r := range snap.Radio[serial] {
			d.str(" ").uint(r.Timestamp).str("/").uint(uint64(r.Band)).str("/").int(int64(r.Channel)).
				str("/").float(r.Busy).str("/").float(r.Decodable).str("/").float(r.Tx)
		}
		d.str("\n").flush()
	}
	for _, serial := range sortedKeys(snap.Scans) {
		d.str("scan ").str(serial)
		for _, p := range snap.Scans[serial] {
			d.str(" ").uint(p.Timestamp).str("/").uint(uint64(p.Band)).str("/").int(int64(p.Channel)).
				str("/").float(p.Busy).str("/").float(p.Decodable)
		}
		d.str("\n").flush()
	}
	for _, serial := range sortedKeys(snap.Crashes) {
		d.str("crash ").str(serial)
		for _, c := range snap.Crashes[serial] {
			d.str(" ").uint(c.Timestamp).str("/").uint(uint64(c.Kind)).str("/").str(c.Firmware).str("/")
			d.b = strconv.AppendUint(d.b, c.PC, 16)
			d.str("/").uint(uint64(c.FreeKB)).str("/").uint(uint64(c.NeighborCount))
		}
		d.str("\n").flush()
	}
	for _, serial := range sortedKeys(snap.Neighbors) {
		m := snap.Neighbors[serial]
		bssids := make([]dot11.BSSID, 0, len(m))
		for b := range m {
			bssids = append(bssids, b)
		}
		sort.Slice(bssids, func(i, j int) bool { return bssids[i].Uint64() < bssids[j].Uint64() })
		d.str("neigh ").str(serial)
		for _, b := range bssids {
			n := m[b]
			d.str(" ").mac(n.BSSID).str("/").str(n.SSID).str("/").uint(uint64(n.Band)).str("/").int(int64(n.Channel)).
				str("/").int(int64(n.RSSIdB)).str("/").str(n.Vendor)
		}
		d.str("\n").flush()
	}
	links := make([]LinkKey, 0, len(snap.Links))
	for k := range snap.Links {
		links = append(links, k)
	}
	sort.Slice(links, func(i, j int) bool { return lessLinkKey(links[i], links[j]) })
	for _, k := range links {
		l := snap.Links[k]
		d.str("link ").str(k.From).str("->").mac(k.To).str(" band=").uint(uint64(k.Band)).
			str(" sent=").uint32s(l.Sent).str(" del=").uint32s(l.Deliver).str("\n").flush()
	}

	d.h.Write(d.b)
	return hex.EncodeToString(d.h.Sum(nil))
}
