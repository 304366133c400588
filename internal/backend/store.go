package backend

import (
	"bytes"
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

// Ratios returns the per-window delivery ratios.
func (l *LinkSeries) Ratios() []float64 {
	out := make([]float64, len(l.Sent))
	for i := range l.Sent {
		if l.Sent[i] > 0 {
			out[i] = float64(l.Deliver[i]) / float64(l.Sent[i])
		}
	}
	return out
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

// Store is the backend datastore. It is safe for concurrent use: one
// RWMutex guards every data map. Mutators (Ingest, Merge, install,
// DeleteNetworks) and capture hold it exclusively for one whole report,
// partial or copy, so a capture is a cut between reports; readers hold
// it shared.
type Store struct {
	mu        sync.RWMutex
	clients   map[dot11.MAC]*ClientAggregate
	seen      map[string]uint64 // highest seq per serial
	radio     map[string][]RadioSample
	scans     map[string][]ScanPoint
	neighbors map[string]map[dot11.BSSID]NeighborEntry
	crashes   map[string][]telemetry.CrashRecord
	links     map[LinkKey]*LinkSeries

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

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{}
	s.install(&snapshot{})
	return s
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
	if r.SeqNo != 0 {
		if hw, ok := s.seen[r.Serial]; ok && r.SeqNo <= hw {
			s.dupes.Add(1)
			return
		}
		s.seen[r.Serial] = r.SeqNo
	}

	for _, rs := range r.Radios {
		cyc := float64(rs.CycleUS)
		if cyc == 0 {
			continue
		}
		s.radio[r.Serial] = append(s.radio[r.Serial], RadioSample{
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
		series, ok := s.links[k]
		if !ok {
			series = &LinkSeries{Key: k}
			s.links[k] = series
		}
		series.Sent = append(series.Sent, l.Sent)
		series.Deliver = append(series.Deliver, l.Delivered)
	}
	for _, sc := range r.ScanSamples {
		s.scans[r.Serial] = append(s.scans[r.Serial], ScanPoint{
			Timestamp: r.Timestamp,
			Band:      sc.Band,
			Channel:   sc.Channel,
			Busy:      float64(sc.BusyPermille) / 1000,
			Decodable: float64(sc.DecodablePermille) / 1000,
		})
	}
	if len(r.Crashes) > 0 {
		s.crashes[r.Serial] = append(s.crashes[r.Serial], r.Crashes...)
	}
	for _, n := range r.Neighbors {
		m, ok := s.neighbors[r.Serial]
		if !ok {
			m = make(map[dot11.BSSID]NeighborEntry)
			s.neighbors[r.Serial] = m
		}
		m[n.BSSID] = NeighborEntry{
			BSSID: n.BSSID, SSID: n.SSID, Band: n.Band,
			Channel: n.Channel, RSSIdB: n.RSSIdB, Vendor: n.Vendor,
		}
	}

	for _, c := range r.Clients {
		agg, ok := s.clients[c.MAC]
		if !ok {
			agg = &ClientAggregate{MAC: c.MAC}
			s.clients[c.MAC] = agg
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
// merges them in network-index order. Every fold below touches only its
// own key, so the result does not depend on p's map iteration order.
func (s *Store) Merge(p *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for mac, agg := range p.clients {
		dst, ok := s.clients[mac]
		if !ok {
			// First sighting: adopt the partial's aggregate wholesale.
			s.clients[mac] = agg
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
	for serial, seq := range p.seen {
		if seq > s.seen[serial] {
			s.seen[serial] = seq
		}
	}
	for serial, v := range p.radio {
		s.radio[serial] = append(s.radio[serial], v...)
	}
	for serial, v := range p.scans {
		s.scans[serial] = append(s.scans[serial], v...)
	}
	for serial, v := range p.crashes {
		s.crashes[serial] = append(s.crashes[serial], v...)
	}
	for serial, src := range p.neighbors {
		m, ok := s.neighbors[serial]
		if !ok {
			s.neighbors[serial] = src
			continue
		}
		for bssid, e := range src {
			m[bssid] = e
		}
	}
	for k, src := range p.links {
		series, ok := s.links[k]
		if !ok {
			s.links[k] = src
			continue
		}
		series.Sent = append(series.Sent, src.Sent...)
		series.Deliver = append(series.Deliver, src.Deliver...)
	}

	// Migration bookkeeping folds as a union: a merged view is "parted"
	// or "already absorbed" if any contributing partial was.
	p.migMu.Lock()
	tokens := make([]string, 0, len(p.absorbed))
	for tok := range p.absorbed {
		tokens = append(tokens, tok)
	}
	ids := make([]uint64, 0, len(p.parted))
	for id := range p.parted {
		ids = append(ids, id)
	}
	p.migMu.Unlock()
	for _, tok := range tokens {
		s.MarkAbsorbed(tok)
	}
	s.Part(ids)

	s.ingests.Add(p.ingests.Load())
	s.dupes.Add(p.dupes.Load())
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lessLinkKey(a, b LinkKey) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.Band != b.Band {
		return a.Band < b.Band
	}
	return a.To.Uint64() < b.To.Uint64()
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

// NumClients returns the number of distinct client MACs.
func (s *Store) NumClients() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.clients)
}

// Clients returns the aggregates explicitly sorted by MAC. The sort is
// load-bearing: downstream table rows must not depend on map iteration
// order. The aggregates are the live ones, so a caller that reads them
// while reports are still arriving races with Ingest; AppTotals is the
// live-safe summary.
func (s *Store) Clients() []*ClientAggregate {
	s.mu.RLock()
	out := make([]*ClientAggregate, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, c)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].MAC.Uint64() < out[j].MAC.Uint64() })
	return out
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
	for _, c := range s.clients {
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
	s.mu.RLock()
	out := make([]*LinkSeries, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, l)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return lessLinkKey(out[i].Key, out[j].Key) })
	return out
}

// RadioSeries returns a device's stored counter samples.
func (s *Store) RadioSeries(serial string) []RadioSample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.radio[serial]
}

// RadioSerials returns the serials with radio samples, sorted.
func (s *Store) RadioSerials() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.radio)
}

// ScanSeries returns a device's stored scan points.
func (s *Store) ScanSeries(serial string) []ScanPoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scans[serial]
}

// ScanSerials returns the serials with scan data, sorted.
func (s *Store) ScanSerials() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.scans)
}

// Neighbors returns a device's deduplicated neighbor table, sorted by
// BSSID.
func (s *Store) Neighbors(serial string) []NeighborEntry {
	s.mu.RLock()
	m := s.neighbors[serial]
	out := make([]NeighborEntry, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].BSSID.Uint64() < out[j].BSSID.Uint64() })
	return out
}

// NeighborSerials returns the serials with neighbor tables, sorted.
func (s *Store) NeighborSerials() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.neighbors)
}

// Crashes returns a device's stored crash records.
func (s *Store) Crashes(serial string) []telemetry.CrashRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashes[serial]
}

// CrashSerials returns the serials with crash reports, sorted.
func (s *Store) CrashSerials() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.crashes)
}

// NeighborCount returns the size of a device's deduplicated neighbor
// table (both bands).
func (s *Store) NeighborCount(serial string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.neighbors[serial])
}

// snapshot is a point-in-time copy of the store: what capture returns,
// what Digest, Save and ExtractNetworks work on with no lock held, and
// the gob-persisted form.
type snapshot struct {
	Seen map[string]uint64
	// ClientList is sorted by MAC.
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

// capture copies the store as it stands between two reports. The lock
// is held exclusively only for the copy, which is O(keys) — it touches
// no sample and no app record:
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
// Hashing, encoding and file I/O then run on the returned value with
// no lock held.
func (s *Store) capture() *snapshot {
	s.mu.Lock()
	sp := obs.StartSpan(s.holdDur)
	snap := &snapshot{
		Seen:       maps.Clone(s.seen),
		ClientList: make([]ClientAggregate, 0, len(s.clients)),
		Links:      make(map[LinkKey]*LinkSeries, len(s.links)),
		Radio:      make(map[string][]RadioSample, len(s.radio)),
		Scans:      make(map[string][]ScanPoint, len(s.scans)),
		Neighbors:  make(map[string]map[dot11.BSSID]NeighborEntry, len(s.neighbors)),
		Crashes:    make(map[string][]telemetry.CrashRecord, len(s.crashes)),
	}
	for _, c := range s.clients {
		c.appsShared = true
		cp := *c
		cp.Apps = slices.Clip(c.Apps)
		cp.UserAgents = slices.Clip(c.UserAgents)
		cp.DHCPFingerprints = slices.Clip(c.DHCPFingerprints)
		snap.ClientList = append(snap.ClientList, cp)
	}
	links := make([]LinkSeries, 0, len(s.links))
	for k, l := range s.links {
		links = append(links, LinkSeries{Key: k, Sent: slices.Clip(l.Sent), Deliver: slices.Clip(l.Deliver)})
		snap.Links[k] = &links[len(links)-1]
	}
	for k, v := range s.radio {
		snap.Radio[k] = slices.Clip(v)
	}
	for k, v := range s.scans {
		snap.Scans[k] = slices.Clip(v)
	}
	for k, v := range s.crashes {
		snap.Crashes[k] = slices.Clip(v)
	}
	for k, m := range s.neighbors {
		snap.Neighbors[k] = maps.Clone(m)
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

	sort.Slice(snap.ClientList, func(i, j int) bool {
		return snap.ClientList[i].MAC.Uint64() < snap.ClientList[j].MAC.Uint64()
	})
	return snap
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
// everything snap references. Absent maps become empty ones.
func (s *Store) install(snap *snapshot) {
	clients := make(map[dot11.MAC]*ClientAggregate, len(snap.ClientList))
	for i := range snap.ClientList {
		c := &snap.ClientList[i]
		clients[c.MAC] = c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clients = clients
	s.seen = orEmpty(snap.Seen)
	s.links = orEmpty(snap.Links)
	s.radio = orEmpty(snap.Radio)
	s.scans = orEmpty(snap.Scans)
	s.neighbors = orEmpty(snap.Neighbors)
	s.crashes = orEmpty(snap.Crashes)
	s.ingests.Store(0)
	s.dupes.Store(0)
	s.migMu.Lock()
	s.absorbed, s.parted = snap.Absorbed, snap.Parted
	s.migMu.Unlock()
}

// orEmpty returns m, or a new empty map when m is nil.
func orEmpty[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	return m
}

// MergeSnapshot folds a gob snapshot into the store without resetting
// what it already holds — the merging counterpart to Load. The
// scatter-gather router uses it to rebuild a cluster-wide view: each
// shard's snapshot decodes into a scratch store and merges through the
// same deterministic path the parallel epoch pipeline uses, so the
// merged digest is independent of fetch order. Ingestion counters from
// the snapshot are not recovered (the snapshot format predates them);
// digests never include counters, so equivalence is unaffected. The
// snapshot is one a cluster peer captured itself, so it skips Load's
// validating walk, which would add a pass over megabytes to every
// merged digest.
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
