package backend

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wlanscale/internal/apps"
	"wlanscale/internal/dot11"
	"wlanscale/internal/obs"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/telemetry"
)

// ClientAggregate is everything the backend knows about one client MAC,
// merged across every AP that reported it (roaming aggregation,
// Section 2.3).
type ClientAggregate struct {
	MAC  dot11.MAC
	Band dot11.Band
	// RSSIdB is the most recent signal report.
	RSSIdB int32
	Caps   dot11.Capabilities
	// Apps holds the per-application byte totals, sorted by name with
	// no name repeated. Totals are updated in place, unless appsShared.
	Apps []telemetry.AppUsageRecord
	// appsShared means a snapshot holds the array behind Apps: capture
	// sets it on the live aggregate and on its copy, and the next
	// foldApps on either replaces the array before writing.
	appsShared bool
	// UserAgents and DHCPFingerprints feed OS inference. Both are
	// append-only sets.
	UserAgents       []string
	DHCPFingerprints [][]byte
	// APs is the sorted set of device serials that reported this
	// client. An insert installs a new slice and never shifts the old
	// one, so a captured header stays valid with no copy.
	APs []string
}

// Total returns the client's total bytes.
func (c *ClientAggregate) Total() uint64 {
	var t uint64
	for _, a := range c.Apps {
		t += a.UpBytes + a.DownBytes
	}
	return t
}

// findApp returns the index name has, or would be inserted at, in the
// sorted Apps, and whether it is present.
func (c *ClientAggregate) findApp(name string) (int, bool) {
	return slices.BinarySearchFunc(c.Apps, name, func(r telemetry.AppUsageRecord, name string) int {
		return strings.Compare(r.App, name)
	})
}

// foldApps adds in's totals to c.Apps. APs report their records sorted
// by name (ap.sortAppRecords) and aggregates are stored sorted, so the
// common case is a two-finger merge: a client that reports the apps it
// reported before costs one string equality per record. A record that
// does not sort above its predecessor falls back to a binary search.
func (c *ClientAggregate) foldApps(in []telemetry.AppUsageRecord) {
	if c.appsShared && len(in) > 0 {
		c.Apps = slices.Clone(c.Apps)
		c.appsShared = false
	}
	i, prev := 0, ""
	for k := range in {
		a := &in[k]
		if i == len(c.Apps) || c.Apps[i].App != a.App {
			if a.App <= prev {
				i, _ = c.findApp(a.App)
			}
			for i < len(c.Apps) && c.Apps[i].App < a.App {
				i++
			}
			if i == len(c.Apps) || c.Apps[i].App != a.App {
				c.Apps = slices.Insert(c.Apps, i, telemetry.AppUsageRecord{App: a.App})
			}
		}
		cur := &c.Apps[i]
		cur.UpBytes += a.UpBytes
		cur.DownBytes += a.DownBytes
		cur.Flows += a.Flows
		prev = a.App
		i++
	}
}

// addAP records that serial reported the client.
func (c *ClientAggregate) addAP(serial string) {
	i := sort.SearchStrings(c.APs, serial)
	if i < len(c.APs) && c.APs[i] == serial {
		return
	}
	aps := make([]string, len(c.APs)+1)
	copy(aps, c.APs[:i])
	aps[i] = serial
	copy(aps[i+1:], c.APs[i:])
	c.APs = aps
}

// OS runs the Section 3.2 inference over the aggregate's artifacts.
func (c *ClientAggregate) OS() apps.OS {
	return apps.InferOS(c.MAC.OUI(), c.DHCPFingerprints, c.UserAgents)
}

// LinkKey identifies a directed AP-AP link.
type LinkKey struct {
	From string // reporting device serial
	To   dot11.MAC
	Band dot11.Band
}

// LinkSeries is the stored window series for one link.
type LinkSeries struct {
	Key     LinkKey
	Sent    []uint32
	Deliver []uint32
}

// MeanDelivery returns the series' average delivery ratio.
func (l *LinkSeries) MeanDelivery() float64 {
	var s, d float64
	for i := range l.Sent {
		s += float64(l.Sent[i])
		d += float64(l.Deliver[i])
	}
	if s == 0 {
		return 0
	}
	return d / s
}

// RadioSample is one stored counter snapshot.
type RadioSample struct {
	Timestamp uint64
	Band      dot11.Band
	Channel   int
	Busy      float64
	Decodable float64
	Tx        float64
}

// ScanPoint is one stored scanning-radio observation.
type ScanPoint struct {
	Timestamp uint64
	Band      dot11.Band
	Channel   int
	Busy      float64
	Decodable float64
}

// NeighborEntry is a deduplicated overheard BSS for one device.
type NeighborEntry struct {
	BSSID   dot11.BSSID
	SSID    string
	Band    dot11.Band
	Channel int
	RSSIdB  int32
	Vendor  string
}

// Store is the backend datastore, partitioned by network: each network
// a device serial names (NetworkOfSerial) owns one partition holding
// its devices' series and the clients its APs reported, and one more
// partition holds the keys of serials no network parses. A client is
// keyed by (network, MAC), so a MAC reported under two networks is two
// aggregates. Partitions are created on first write; one with no keyed
// entry is not a network the store holds.
//
// The store is safe for concurrent use: one RWMutex guards every
// partition. Mutators (Ingest, Merge, install, DeleteNetworks) and
// capture hold it exclusively for one whole report, partial or copy, so
// a capture is a cut between reports; readers hold it shared.
type Store struct {
	mu       sync.RWMutex
	parts    map[uint64]*partition
	unparsed *partition // nil until a serial no network parses writes

	// clients counts the aggregates of every partition. The mutators keep
	// it under mu; NumClients reads it with no lock.
	clients atomic.Int64
	ingests atomic.Int64
	dupes   atomic.Int64

	// Migration bookkeeping (see migrate.go). migMu guards both maps;
	// it is only ever taken alone or inside mu (capture, install), never
	// the other way around. absorbMu serializes whole Absorb operations
	// so two concurrent absorbs of the same token cannot both pass the
	// dedup check and double-merge.
	migMu    sync.Mutex
	absorbed map[string]bool
	parted   map[uint64]bool
	absorbMu sync.Mutex

	// When EnableObs attached a registry: holdDur times the exclusive
	// section of each capture, saveDur the gob encode and digestDur the
	// hash walk that follow it with no lock held. Nil (no-op) otherwise.
	holdDur, saveDur, digestDur *obs.Histogram

	// tracer, when EnableTrace attached one, records a store.ingest span
	// for every sampled report folded in. Nil (no-op) otherwise.
	tracer *trace.Tracer
}

// partition is one network's share of the store.
type partition struct {
	clients   map[dot11.MAC]*ClientAggregate
	seen      map[string]uint64 // highest seq per serial
	radio     map[string][]RadioSample
	scans     map[string][]ScanPoint
	neighbors map[string]map[dot11.BSSID]NeighborEntry
	crashes   map[string][]telemetry.CrashRecord
	links     map[LinkKey]*LinkSeries
}

func newPartition() *partition {
	return &partition{
		clients: make(map[dot11.MAC]*ClientAggregate), seen: make(map[string]uint64),
		radio: make(map[string][]RadioSample), scans: make(map[string][]ScanPoint),
		neighbors: make(map[string]map[dot11.BSSID]NeighborEntry), crashes: make(map[string][]telemetry.CrashRecord),
		links: make(map[LinkKey]*LinkSeries),
	}
}

// entries counts the partition's keyed entries.
func (p *partition) entries() int {
	return len(p.clients) + len(p.seen) + len(p.radio) + len(p.scans) + len(p.neighbors) + len(p.crashes) + len(p.links)
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{parts: make(map[uint64]*partition)}
}

// partFor returns network id's partition, or for !ok the unparsed
// serials', creating it.
func (s *Store) partFor(id uint64, ok bool) *partition {
	p := s.unparsed
	if ok {
		p = s.parts[id]
	}
	if p == nil {
		p = newPartition()
		if ok {
			s.parts[id] = p
		} else {
			s.unparsed = p
		}
	}
	return p
}

// lookup returns the partition that owns serial's keys; one the store
// lacks reads as empty.
func (s *Store) lookup(serial string) *partition {
	p := s.unparsed
	if id, ok := NetworkOfSerial(serial); ok {
		p = s.parts[id]
	}
	if p == nil {
		return &partition{}
	}
	return p
}

// each calls f on every partition, in no particular order.
func (s *Store) each(f func(*partition)) {
	for _, p := range s.parts {
		f(p)
	}
	if s.unparsed != nil {
		f(s.unparsed)
	}
}

// sorted returns the partitions of every network and then the unparsed
// serials', in network order.
func (s *Store) sorted() []*partition {
	keys := make([]uint64, 0, len(s.parts))
	for id := range s.parts {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	out := make([]*partition, len(keys), len(keys)+1)
	for i, id := range keys {
		out[i] = s.parts[id]
	}
	if s.unparsed != nil {
		out = append(out, s.unparsed)
	}
	return out
}

// Ingest merges one report. Re-delivered reports (same serial, seqno not
// above the high-water mark) are dropped, making harvest idempotent.
func (s *Store) Ingest(r *telemetry.Report) {
	sp := s.tracer.Start(trace.ID(r.TraceID), trace.StageStoreIngest)
	sp.SetSerial(r.Serial)
	sp.SetSeq(r.SeqNo)
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.partFor(NetworkOfSerial(r.Serial))
	if r.SeqNo != 0 {
		if hw, ok := p.seen[r.Serial]; ok && r.SeqNo <= hw {
			s.dupes.Add(1)
			return
		}
		p.seen[r.Serial] = r.SeqNo
	}

	for _, rs := range r.Radios {
		cyc := float64(rs.CycleUS)
		if cyc == 0 {
			continue
		}
		p.radio[r.Serial] = append(p.radio[r.Serial], RadioSample{
			Timestamp: r.Timestamp,
			Band:      rs.Band,
			Channel:   rs.Channel,
			Busy:      float64(rs.RxClearUS) / cyc,
			Decodable: float64(rs.Rx11US) / cyc,
			Tx:        float64(rs.TxUS) / cyc,
		})
	}
	for _, l := range r.LinkWindows {
		k := LinkKey{From: r.Serial, To: l.Peer, Band: l.Band}
		series, ok := p.links[k]
		if !ok {
			series = &LinkSeries{Key: k}
			p.links[k] = series
		}
		series.Sent = append(series.Sent, l.Sent)
		series.Deliver = append(series.Deliver, l.Delivered)
	}
	for _, sc := range r.ScanSamples {
		p.scans[r.Serial] = append(p.scans[r.Serial], ScanPoint{
			Timestamp: r.Timestamp,
			Band:      sc.Band,
			Channel:   sc.Channel,
			Busy:      float64(sc.BusyPermille) / 1000,
			Decodable: float64(sc.DecodablePermille) / 1000,
		})
	}
	if len(r.Crashes) > 0 {
		p.crashes[r.Serial] = append(p.crashes[r.Serial], r.Crashes...)
	}
	for _, n := range r.Neighbors {
		m, ok := p.neighbors[r.Serial]
		if !ok {
			m = make(map[dot11.BSSID]NeighborEntry)
			p.neighbors[r.Serial] = m
		}
		m[n.BSSID] = NeighborEntry{
			BSSID: n.BSSID, SSID: n.SSID, Band: n.Band,
			Channel: n.Channel, RSSIdB: n.RSSIdB, Vendor: n.Vendor,
		}
	}

	for _, c := range r.Clients {
		agg, ok := p.clients[c.MAC]
		if !ok {
			agg = &ClientAggregate{MAC: c.MAC}
			p.clients[c.MAC] = agg
			s.clients.Add(1)
		}
		agg.Band = c.Band
		agg.RSSIdB = c.RSSIdB
		agg.Caps = c.Caps
		agg.addAP(r.Serial)
		for _, ua := range c.UserAgents {
			agg.addUA(ua)
		}
		for _, fp := range c.DHCPFingerprints {
			agg.addFP(fp)
		}
		agg.foldApps(c.Apps)
	}
	s.ingests.Add(1)
}

// EnableObs folds the store's counters into reg: "store.ingests",
// "store.dupes" and "store.clients" as func gauges, and three
// histograms: "store.capture_hold_us" (how long each capture held the
// lock exclusively, i.e. how long ingest stalled), "store.save_us" and
// "store.digest_us" (the gob encode and the hash walk that follow a
// capture with no lock held). Like everything in obs, these are
// observe-only; calling EnableObs changes no stored data. Call before
// serving (merakid does) — attaching the histograms is not
// synchronized with a concurrent Save or Digest.
func (s *Store) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("store.ingests", func() int64 { return s.ingests.Load() })
	reg.RegisterFunc("store.dupes", func() int64 { return s.dupes.Load() })
	reg.RegisterFunc("store.clients", func() int64 { return int64(s.NumClients()) })
	s.holdDur = reg.Histogram("store.capture_hold_us", obs.DurationBuckets)
	s.saveDur = reg.Histogram("store.save_us", obs.DurationBuckets)
	s.digestDur = reg.Histogram("store.digest_us", obs.DurationBuckets)
}

// EnableTrace attaches a tracer: every sampled report folded in by
// Ingest records a store.ingest span (trace ID read from the report,
// duration covering the whole fold). Observe-only — stored data and
// digests are unchanged. Call before serving; attaching is not
// synchronized with concurrent Ingest.
func (s *Store) EnableTrace(t *trace.Tracer) { s.tracer = t }

func (c *ClientAggregate) addUA(ua string) {
	for _, e := range c.UserAgents {
		if e == ua {
			return
		}
	}
	c.UserAgents = append(c.UserAgents, ua)
}

func (c *ClientAggregate) addFP(fp []byte) {
	for _, e := range c.DHCPFingerprints {
		if string(e) == string(fp) {
			return
		}
	}
	cp := make([]byte, len(fp))
	copy(cp, fp)
	c.DHCPFingerprints = append(c.DHCPFingerprints, cp)
}

// Merge folds a partial store into s. The caller hands over ownership
// of p: the parallel epoch pipeline builds one partial per network and
// merges them in network-index order. A partition s lacks is adopted
// whole; one s has is folded key by key. Every fold touches only its
// own key, so the result does not depend on p's map iteration order.
func (s *Store) Merge(p *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, src := range p.parts {
		s.parts[id] = s.fold(s.parts[id], src)
	}
	s.unparsed = s.fold(s.unparsed, p.unparsed)

	// Migration bookkeeping folds as a union: a merged view is "parted"
	// or "already absorbed" if any contributing partial was.
	p.migMu.Lock()
	absorbed, parted := maps.Clone(p.absorbed), maps.Clone(p.parted)
	p.migMu.Unlock()
	s.migMu.Lock()
	s.absorbed, s.parted = union(s.absorbed, absorbed), union(s.parted, parted)
	s.migMu.Unlock()

	s.ingests.Add(p.ingests.Load())
	s.dupes.Add(p.dupes.Load())
}

// fold merges src's entries into p, adopting what p lacks, and returns
// p, or src itself when p is nil.
func (s *Store) fold(p, src *partition) *partition {
	switch {
	case src == nil:
		return p
	case p == nil:
		s.clients.Add(int64(len(src.clients)))
		return src
	}
	for mac, agg := range src.clients {
		dst, ok := p.clients[mac]
		if !ok {
			p.clients[mac] = agg
			s.clients.Add(1)
			continue
		}
		dst.Band = agg.Band
		dst.RSSIdB = agg.RSSIdB
		dst.Caps = agg.Caps
		for _, serial := range agg.APs {
			dst.addAP(serial)
		}
		for _, ua := range agg.UserAgents {
			dst.addUA(ua)
		}
		for _, fp := range agg.DHCPFingerprints {
			dst.addFP(fp)
		}
		dst.foldApps(agg.Apps)
	}
	for serial, seq := range src.seen {
		if seq > p.seen[serial] {
			p.seen[serial] = seq
		}
	}
	for serial, v := range src.radio {
		p.radio[serial] = append(p.radio[serial], v...)
	}
	for serial, v := range src.scans {
		p.scans[serial] = append(p.scans[serial], v...)
	}
	for serial, v := range src.crashes {
		p.crashes[serial] = append(p.crashes[serial], v...)
	}
	for serial, m := range src.neighbors {
		dst, ok := p.neighbors[serial]
		if !ok {
			p.neighbors[serial] = m
			continue
		}
		maps.Copy(dst, m)
	}
	for k, l := range src.links {
		series, ok := p.links[k]
		if !ok {
			p.links[k] = l
			continue
		}
		series.Sent = append(series.Sent, l.Sent...)
		series.Deliver = append(series.Deliver, l.Deliver...)
	}
	return p
}

// union adds b's entries to a, made if a is nil and b is not empty.
func union[K comparable](a, b map[K]bool) map[K]bool {
	if a == nil && len(b) > 0 {
		a = make(map[K]bool, len(b))
	}
	maps.Copy(a, b)
	return a
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compareLinkKey orders links by reporting serial, band, then peer.
func compareLinkKey(a, b LinkKey) int {
	return cmp.Or(strings.Compare(a.From, b.From), cmp.Compare(a.Band, b.Band), cmp.Compare(a.To.Uint64(), b.To.Uint64()))
}

// Stats returns how many reports were folded in and how many were
// dropped as re-deliveries since the store was built or last loaded. A
// snapshot carries no counters: Load starts them from zero, a merged
// partial adds its own, and a booted DurableStore counts its WAL replay
// above the checkpoint plus what it ingests after boot, not the
// reports the checkpoint holds.
func (s *Store) Stats() (ingests, dupes int) {
	return int(s.ingests.Load()), int(s.dupes.Load())
}

// NumClients returns the number of client aggregates: distinct MACs
// per network. It reads a count the mutators keep, with no lock.
func (s *Store) NumClients() int { return int(s.clients.Load()) }

// Clients returns the aggregates explicitly sorted by MAC, then by
// network (see sortByMAC). The sort is load-bearing: downstream table
// rows must not depend on map iteration order. The aggregates are the
// live ones, so a caller that reads them while reports are still
// arriving races with Ingest; AppTotals is the live-safe summary.
func (s *Store) Clients() []*ClientAggregate {
	var out []*ClientAggregate
	s.mu.RLock()
	for _, p := range s.sorted() {
		for _, c := range p.clients {
			out = append(out, c)
		}
	}
	s.mu.RUnlock()
	sortByMAC(out, func(c **ClientAggregate) dot11.MAC { return (*c).MAC })
	return out
}

// sortByMAC sorts list by MAC. Callers append the partitions' clients
// in network order, unparsed serials' last, and equal MACs (one MAC
// reported under two networks) keep that order. It sorts (MAC,
// position) keys and then moves each element once, which is cheaper
// than moving aggregates around inside a comparison sort.
func sortByMAC[T any](list []T, mac func(*T) dot11.MAC) {
	type key struct {
		mac uint64
		at  int
	}
	keys := make([]key, len(list))
	for i := range list {
		keys[i] = key{mac(&list[i]).Uint64(), i}
	}
	slices.SortFunc(keys, func(a, b key) int { return cmp.Or(cmp.Compare(a.mac, b.mac), cmp.Compare(a.at, b.at)) })
	// Position i takes the element at keys[i].at: follow each cycle of
	// the permutation once, marking the positions it fills.
	for i := range keys {
		if keys[i].at < 0 {
			continue
		}
		first, j := list[i], i
		for keys[j].at != i {
			from := keys[j].at
			list[j], keys[j].at = list[from], -1
			j = from
		}
		list[j], keys[j].at = first, -1
	}
}

// AppTotal is one application's traffic summed over every client.
type AppTotal struct {
	App     string
	Bytes   uint64 // up + down
	Clients int    // clients with a record for the app
}

// AppTotals sums every client's per-application records, sorted by
// bytes descending, then name. The fold runs under the read lock, so it
// is safe against concurrent Ingest.
func (s *Store) AppTotals() []AppTotal {
	idx := make(map[string]int)
	var out []AppTotal
	s.mu.RLock()
	s.each(func(p *partition) {
		for _, c := range p.clients {
			for _, rec := range c.Apps {
				i, ok := idx[rec.App]
				if !ok {
					i = len(out)
					idx[rec.App] = i
					out = append(out, AppTotal{App: rec.App})
				}
				out[i].Bytes += rec.UpBytes + rec.DownBytes
				out[i].Clients++
			}
		}
	})
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].App < out[j].App
	})
	return out
}

// Links returns every stored link series, sorted for determinism.
func (s *Store) Links() []*LinkSeries {
	var out []*LinkSeries
	s.mu.RLock()
	s.each(func(p *partition) {
		for _, l := range p.links {
			out = append(out, l)
		}
	})
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b *LinkSeries) int { return compareLinkKey(a.Key, b.Key) })
	return out
}

// serials returns the serials that key the map field picks, sorted.
func serials[V any](s *Store, field func(*partition) map[string]V) []string {
	var out []string
	s.mu.RLock()
	s.each(func(p *partition) {
		for serial := range field(p) {
			out = append(out, serial)
		}
	})
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// RadioSeries returns a device's stored counter samples.
func (s *Store) RadioSeries(serial string) []RadioSample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookup(serial).radio[serial]
}

// RadioSerials returns the serials with radio samples, sorted.
func (s *Store) RadioSerials() []string {
	return serials(s, func(p *partition) map[string][]RadioSample { return p.radio })
}

// NeighborSerials returns the serials with neighbor tables, sorted.
func (s *Store) NeighborSerials() []string {
	return serials(s, func(p *partition) map[string]map[dot11.BSSID]NeighborEntry { return p.neighbors })
}

// Crashes returns a device's stored crash records.
func (s *Store) Crashes(serial string) []telemetry.CrashRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookup(serial).crashes[serial]
}

// CrashSerials returns the serials with crash reports, sorted.
func (s *Store) CrashSerials() []string {
	return serials(s, func(p *partition) map[string][]telemetry.CrashRecord { return p.crashes })
}

// NeighborCount returns the size of a device's deduplicated neighbor
// table (both bands).
func (s *Store) NeighborCount(serial string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.lookup(serial).neighbors[serial])
}

// snapshot is a point-in-time copy of the store: what capture returns,
// what Digest, Save and ExtractNetworks work on with no lock held, and
// the gob-persisted form.
type snapshot struct {
	Seen map[string]uint64
	// ClientList is sorted by MAC, then by network ID, with clients of
	// serials no network parses last (sortByMAC).
	ClientList []ClientAggregate
	Links      map[LinkKey]*LinkSeries
	Radio      map[string][]RadioSample
	Scans      map[string][]ScanPoint
	Neighbors  map[string]map[dot11.BSSID]NeighborEntry
	Crashes    map[string][]telemetry.CrashRecord
	// Absorbed and Parted persist the rebalance bookkeeping (migrate.go)
	// so a restarted shard still refuses parted networks and still
	// deduplicates migration slices by token. Both are nil when no
	// rebalance ever touched the store — gob then omits them — and
	// neither feeds Digest, so data equivalence is unaffected.
	Absorbed map[string]bool
	Parted   map[uint64]bool

	// Clients is where snapshots written before ClientList existed keep
	// their aggregates, with per-client maps. Decode-only: upgrade moves
	// them into ClientList, and capture never fills it, so gob omits it
	// from every new snapshot.
	Clients map[dot11.MAC]*legacyClient
}

// legacyClient is ClientAggregate as snapshots persisted it while Apps
// and APs were maps.
type legacyClient struct {
	Band             dot11.Band
	RSSIdB           int32
	Caps             dot11.Capabilities
	Apps             map[string]*telemetry.AppUsageRecord
	UserAgents       []string
	DHCPFingerprints [][]byte
	APs              map[string]bool
}

// capture copies the store as it stands between two reports, all
// partitions flattened into one snapshot. The lock is held exclusively
// only for the copy, which is O(keys) — it touches no sample and no app
// record:
//
//   - Radio, scan and crash series, link Sent/Deliver, user agents and
//     fingerprints are append-only, so capture takes their slice headers
//     and copies no element. Each header is cap-clamped (slices.Clip): the
//     live store may append into its spare capacity beyond n, which the
//     snapshot never reads, and an append on the snapshot side (a store
//     built by ExtractNetworks) reallocates instead of writing there.
//   - A client's AP set is replaced on insert, never shifted, so its
//     header is taken as is.
//   - A client's app totals are updated in place, so they are shared
//     copy-on-write: capture marks the aggregate (appsShared) and the
//     next report that touches the client clones its ~13 records first.
//   - What is left is copied: one struct per client, the dedup marks
//     and the small neighbor tables, which later reports overwrite.
//
// Encoding and file I/O then run on the returned value with no lock
// held. Digest and ExtractNetworks copy partitions by the same rules
// (copyClient).
func (s *Store) capture() *snapshot {
	s.mu.Lock()
	sp := obs.StartSpan(s.holdDur)
	parts := s.sorted()
	var nClients, nSeen, nLinks, nRadio, nScans, nNeighbors, nCrashes int
	for _, p := range parts {
		nClients, nSeen, nLinks = nClients+len(p.clients), nSeen+len(p.seen), nLinks+len(p.links)
		nRadio, nScans, nNeighbors, nCrashes = nRadio+len(p.radio), nScans+len(p.scans), nNeighbors+len(p.neighbors), nCrashes+len(p.crashes)
	}
	snap := &snapshot{
		Seen:       make(map[string]uint64, nSeen),
		ClientList: make([]ClientAggregate, 0, nClients),
		Links:      make(map[LinkKey]*LinkSeries, nLinks),
		Radio:      make(map[string][]RadioSample, nRadio),
		Scans:      make(map[string][]ScanPoint, nScans),
		Neighbors:  make(map[string]map[dot11.BSSID]NeighborEntry, nNeighbors),
		Crashes:    make(map[string][]telemetry.CrashRecord, nCrashes),
	}
	links := make([]LinkSeries, 0, nLinks)
	for _, p := range parts {
		for _, c := range p.clients {
			snap.ClientList = append(snap.ClientList, copyClient(c))
		}
		maps.Copy(snap.Seen, p.seen)
		for k, l := range p.links {
			links = append(links, LinkSeries{Key: k, Sent: slices.Clip(l.Sent), Deliver: slices.Clip(l.Deliver)})
			snap.Links[k] = &links[len(links)-1]
		}
		for k, v := range p.radio {
			snap.Radio[k] = slices.Clip(v)
		}
		for k, v := range p.scans {
			snap.Scans[k] = slices.Clip(v)
		}
		for k, v := range p.crashes {
			snap.Crashes[k] = slices.Clip(v)
		}
		for k, m := range p.neighbors {
			snap.Neighbors[k] = maps.Clone(m)
		}
	}
	s.migMu.Lock()
	if len(s.absorbed) > 0 {
		snap.Absorbed = maps.Clone(s.absorbed)
	}
	if len(s.parted) > 0 {
		snap.Parted = maps.Clone(s.parted)
	}
	s.migMu.Unlock()
	s.mu.Unlock()
	sp.End()

	sortByMAC(snap.ClientList, func(c *ClientAggregate) dot11.MAC { return c.MAC })
	return snap
}

// copyClient copies c as a capture takes it: c's app totals become
// shared copy-on-write, and the copy's append-only slices are
// cap-clamped.
func copyClient(c *ClientAggregate) ClientAggregate {
	c.appsShared = true
	cp := *c
	cp.Apps = slices.Clip(c.Apps)
	cp.UserAgents = slices.Clip(c.UserAgents)
	cp.DHCPFingerprints = slices.Clip(c.DHCPFingerprints)
	return cp
}

// Save writes a gob snapshot of the store as it stands between two
// reports (see capture); the encode runs with no lock held.
func (s *Store) Save(w io.Writer) error { return s.encode(w, s.capture()) }

func (s *Store) encode(w io.Writer, snap *snapshot) error {
	sp := obs.StartSpan(s.saveDur)
	defer sp.End()
	return gob.NewEncoder(w).Encode(snap)
}

// upgrade brings a decoded snapshot to the form install expects:
// legacy per-client maps become sorted slices in ClientList, and a
// ClientList entry whose sorted-set invariants do not hold (a damaged
// or hostile snapshot) is refused, since Ingest's merge relies on them.
func (snap *snapshot) upgrade() error {
	for mac, lc := range snap.Clients {
		if lc == nil {
			continue
		}
		c := ClientAggregate{
			MAC: mac, Band: lc.Band, RSSIdB: lc.RSSIdB, Caps: lc.Caps,
			UserAgents: lc.UserAgents, DHCPFingerprints: lc.DHCPFingerprints,
			APs: sortedKeys(lc.APs),
		}
		for _, name := range sortedKeys(lc.Apps) {
			if a := lc.Apps[name]; a != nil {
				c.Apps = append(c.Apps, telemetry.AppUsageRecord{App: name, UpBytes: a.UpBytes, DownBytes: a.DownBytes, Flows: a.Flows})
			}
		}
		snap.ClientList = append(snap.ClientList, c)
	}
	snap.Clients = nil
	for i := range snap.ClientList {
		c := &snap.ClientList[i]
		for j := 1; j < len(c.Apps); j++ {
			if c.Apps[j-1].App >= c.Apps[j].App {
				return fmt.Errorf("client %s: apps not sorted", c.MAC)
			}
		}
		for j := 1; j < len(c.APs); j++ {
			if c.APs[j-1] >= c.APs[j] {
				return fmt.Errorf("client %s: APs not sorted", c.MAC)
			}
		}
	}
	return nil
}

// Load replaces the store contents from a gob snapshot. The swap is
// one exclusive section, so readers and captures see the store either
// wholly before or wholly after the load. The Stats counters restart
// from zero, since a snapshot carries none.
//
// The bytes may be damaged (a checkpoint on a failing disk) or hostile
// (an absorb payload from the query port), and gob sizes every map it
// decodes from the count on the wire before reading a single entry, so
// a few bad bytes could demand gigabytes. Load therefore first decodes
// the stream into an empty struct: gob skips every field, keeps
// nothing, and fails unless every count is backed by entries that are
// really there. Before that, every gob message must fit in the bytes
// that follow its length: gob reads a message into a buffer of the
// length it claims, up to 10 MiB at a time, before it finds the bytes
// missing, so six bytes could cost ten megabytes.
func (s *Store) Load(r io.Reader) error {
	// io.Copy hands over an in-memory reader's bytes in one write, so
	// the buffer is allocated once at their size.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return fmt.Errorf("backend: load: %w", err)
	}
	return s.loadBytes(buf.Bytes())
}

// loadBytes is Load of a snapshot already in memory.
func (s *Store) loadBytes(b []byte) error {
	err := checkGobFrames(b)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(b)).Decode(new(struct{}))
	}
	if err != nil {
		return fmt.Errorf("backend: load: %w", err)
	}
	return s.load(bytes.NewReader(b))
}

// checkGobFrames walks a gob stream's message framing — a length in
// gob's unsigned encoding, then that many bytes — and fails on a length
// that runs past the end of b.
func checkGobFrames(b []byte) error {
	for len(b) > 0 {
		n, w := uint64(b[0]), 1
		if n > 0x7f {
			// A negated byte count, then the length in that many bytes,
			// big-endian.
			w += -int(int8(b[0]))
			if w > 9 || w > len(b) {
				return io.ErrUnexpectedEOF
			}
			n = 0
			for _, c := range b[1:w] {
				n = n<<8 | uint64(c)
			}
		}
		if n > uint64(len(b)-w) {
			return io.ErrUnexpectedEOF
		}
		b = b[w+int(n):]
	}
	return nil
}

// load is Load without the validating walk.
func (s *Store) load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("backend: load: %w", err)
	}
	if err := snap.upgrade(); err != nil {
		return fmt.Errorf("backend: load: %w", err)
	}
	s.install(&snap)
	return nil
}

// install replaces the store contents with snap's, taking ownership of
// everything snap references. Each key goes to the partition of its
// serial's network, and each client to its network (networkOfClient).
func (s *Store) install(snap *snapshot) {
	n := NewStore()
	for i := range snap.ClientList {
		c := &snap.ClientList[i]
		n.partFor(networkOfClient(c)).clients[c.MAC] = c
	}
	for k, l := range snap.Links {
		n.partFor(NetworkOfSerial(k.From)).links[k] = l
	}
	spread(n, snap.Seen, func(p *partition) map[string]uint64 { return p.seen })
	spread(n, snap.Radio, func(p *partition) map[string][]RadioSample { return p.radio })
	spread(n, snap.Scans, func(p *partition) map[string][]ScanPoint { return p.scans })
	spread(n, snap.Neighbors, func(p *partition) map[string]map[dot11.BSSID]NeighborEntry { return p.neighbors })
	spread(n, snap.Crashes, func(p *partition) map[string][]telemetry.CrashRecord { return p.crashes })
	clients := 0
	n.each(func(p *partition) { clients += len(p.clients) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parts, s.unparsed = n.parts, n.unparsed
	s.clients.Store(int64(clients))
	s.ingests.Store(0)
	s.dupes.Store(0)
	s.migMu.Lock()
	s.absorbed, s.parted = snap.Absorbed, snap.Parted
	s.migMu.Unlock()
}

// spread files each entry of a serial-keyed snapshot map m in field of
// the partition that owns its serial.
func spread[V any](s *Store, m map[string]V, field func(*partition) map[string]V) {
	for serial, v := range m {
		field(s.partFor(NetworkOfSerial(serial)))[serial] = v
	}
}

// MergeSnapshot folds a gob snapshot into the store without resetting
// what it already holds — the merging counterpart to Load. The
// scatter-gather router uses it to fold a network two shards hold: each
// shard's extract decodes into a scratch store and merges through the
// same deterministic path the parallel epoch pipeline uses. Ingestion
// counters from the snapshot are not recovered (the snapshot format
// predates them); digests never include counters, so equivalence is
// unaffected. The snapshot is one a cluster peer captured itself, so it
// skips Load's validating walk.
func (s *Store) MergeSnapshot(r io.Reader) error {
	tmp := NewStore()
	if err := tmp.load(r); err != nil {
		return err
	}
	s.Merge(tmp)
	return nil
}

// SaveFile writes the snapshot to a file path atomically: encode into
// a temp file in the target directory, fsync it, then rename over the
// destination. A crash at any point leaves either the old snapshot or
// the new one — never a torn file — which is what lets merakid's
// "save" query and -snapshot shutdown path run against a path that
// already holds the previous generation.
func (s *Store) SaveFile(path string) error { return s.saveFile(path, s.capture()) }

// saveFile is SaveFile for an already captured snapshot; Checkpoint
// captures under its own lock and writes afterwards.
func (s *Store) saveFile(path string, snap *snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.encode(f, snap); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable. Best effort: some filesystems refuse directory fsync,
// and the rename itself is already atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// LoadFile reads a snapshot from a file path.
func (s *Store) LoadFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.loadBytes(b)
}
