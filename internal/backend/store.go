package backend

import (
	"encoding/gob"
	"fmt"
	"hash/maphash"
	"io"
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

// DefaultShards is the stripe count of NewStore. 32 stripes keep
// contention negligible up to typical harvest-worker counts while the
// per-store footprint stays small.
const DefaultShards = 32

// clientShard is one stripe of the MAC-keyed client aggregation.
type clientShard struct {
	mu      sync.Mutex
	clients map[dot11.MAC]*ClientAggregate
}

// deviceShard is one stripe of the serial-keyed device data. Everything
// a single report writes outside the client map lives in the reporting
// device's shard, so dedup and series appends for one serial are
// serialized by one lock.
type deviceShard struct {
	// ingests counts reports Ingest routed to this stripe (accepted,
	// not deduplicated) — the per-stripe load signal EnableObs exports.
	// Merge is not attributed per stripe, so after merges the stripe
	// sum can trail the store total. Atomic, so readers never touch
	// the stripe lock.
	ingests   atomic.Int64
	mu        sync.Mutex
	seen      map[string]uint64 // highest seq per serial
	radio     map[string][]RadioSample
	scans     map[string][]ScanPoint
	neighbors map[string]map[dot11.BSSID]NeighborEntry
	crashes   map[string][]telemetry.CrashRecord
	links     map[LinkKey]*LinkSeries // keyed by From == shard serial
}

// Store is the backend datastore. It is safe for concurrent use: client
// aggregates are lock-striped by MAC and device series by serial.
type Store struct {
	clientShards []*clientShard
	deviceShards []*deviceShard
	mask         uint64

	// gate makes a snapshot a cut between reports. Every mutator holds it
	// shared for one whole report or partial (Ingest, Merge, install), so
	// writers never wait for each other on it; capture and DeleteNetworks
	// hold it exclusively, and only long enough to copy what a later
	// write could change (see capture). It is taken before any stripe
	// lock and never while holding one.
	gate sync.RWMutex

	ingests atomic.Int64
	dupes   atomic.Int64

	// Migration bookkeeping (see migrate.go). migMu guards both maps;
	// it is only ever taken alone or inside the gate (capture), never
	// the other way around. absorbMu serializes whole Absorb operations
	// so two concurrent absorbs of the same token cannot both pass the
	// dedup check and double-merge.
	migMu    sync.Mutex
	absorbed map[string]bool
	parted   map[uint64]bool
	absorbMu sync.Mutex

	// When EnableObs attached a registry: holdDur times the exclusive
	// gate section of each capture, saveDur the gob encode and digestDur
	// the hash walk that follow it with no lock held. Nil (no-op)
	// otherwise.
	holdDur, saveDur, digestDur *obs.Histogram

	// tracer, when EnableTrace attached one, records a store.ingest span
	// for every sampled report folded in. Nil (no-op) otherwise.
	tracer *trace.Tracer
}

// serialSeed fixes the serial hash across stores so sharding is
// reproducible within a process (determinism never depends on it: reads
// re-sort).
var serialSeed = maphash.MakeSeed()

// NewStore creates an empty store with DefaultShards stripes.
func NewStore() *Store { return NewStoreShards(DefaultShards) }

// NewStoreShards creates an empty store with n lock stripes (rounded up
// to a power of two; n <= 1 yields a single-mutex store, useful as the
// contention baseline in benchmarks).
func NewStoreShards(n int) *Store {
	shards := 1
	for shards < n {
		shards <<= 1
	}
	s := &Store{
		clientShards: make([]*clientShard, shards),
		deviceShards: make([]*deviceShard, shards),
		mask:         uint64(shards - 1),
	}
	for i := 0; i < shards; i++ {
		s.clientShards[i] = &clientShard{clients: make(map[dot11.MAC]*ClientAggregate)}
		s.deviceShards[i] = &deviceShard{
			seen:      make(map[string]uint64),
			radio:     make(map[string][]RadioSample),
			scans:     make(map[string][]ScanPoint),
			neighbors: make(map[string]map[dot11.BSSID]NeighborEntry),
			crashes:   make(map[string][]telemetry.CrashRecord),
			links:     make(map[LinkKey]*LinkSeries),
		}
	}
	return s
}

// NumShards returns the stripe count.
func (s *Store) NumShards() int { return len(s.clientShards) }

// clientShardFor picks the stripe for a client MAC. MACs from one OUI
// differ only in the low 24 bits, so mix the packed value before
// masking.
func (s *Store) clientShardFor(mac dot11.MAC) *clientShard {
	return s.clientShards[mix64(mac.Uint64())&s.mask]
}

func (s *Store) deviceShardFor(serial string) *deviceShard {
	return s.deviceShards[maphash.String(serialSeed, serial)&s.mask]
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// Ingest merges one report. Re-delivered reports (same serial, seqno not
// above the high-water mark) are dropped, making harvest idempotent.
// Reports for different serials take disjoint device stripes and
// contend on a client stripe only when their clients hash together.
func (s *Store) Ingest(r *telemetry.Report) {
	sp := s.tracer.Start(trace.ID(r.TraceID), trace.StageStoreIngest)
	sp.SetSerial(r.Serial)
	sp.SetSeq(r.SeqNo)
	defer sp.End()
	s.gate.RLock()
	defer s.gate.RUnlock()
	ds := s.deviceShardFor(r.Serial)
	ds.mu.Lock()
	if r.SeqNo != 0 {
		if hw, ok := ds.seen[r.Serial]; ok && r.SeqNo <= hw {
			ds.mu.Unlock()
			s.dupes.Add(1)
			return
		}
		ds.seen[r.Serial] = r.SeqNo
	}

	for _, rs := range r.Radios {
		cyc := float64(rs.CycleUS)
		if cyc == 0 {
			continue
		}
		ds.radio[r.Serial] = append(ds.radio[r.Serial], RadioSample{
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
		series, ok := ds.links[k]
		if !ok {
			series = &LinkSeries{Key: k}
			ds.links[k] = series
		}
		series.Sent = append(series.Sent, l.Sent)
		series.Deliver = append(series.Deliver, l.Delivered)
	}
	for _, sc := range r.ScanSamples {
		ds.scans[r.Serial] = append(ds.scans[r.Serial], ScanPoint{
			Timestamp: r.Timestamp,
			Band:      sc.Band,
			Channel:   sc.Channel,
			Busy:      float64(sc.BusyPermille) / 1000,
			Decodable: float64(sc.DecodablePermille) / 1000,
		})
	}
	if len(r.Crashes) > 0 {
		ds.crashes[r.Serial] = append(ds.crashes[r.Serial], r.Crashes...)
	}
	for _, n := range r.Neighbors {
		m, ok := ds.neighbors[r.Serial]
		if !ok {
			m = make(map[dot11.BSSID]NeighborEntry)
			ds.neighbors[r.Serial] = m
		}
		m[n.BSSID] = NeighborEntry{
			BSSID: n.BSSID, SSID: n.SSID, Band: n.Band,
			Channel: n.Channel, RSSIdB: n.RSSIdB, Vendor: n.Vendor,
		}
	}
	ds.mu.Unlock()

	for _, c := range r.Clients {
		cs := s.clientShardFor(c.MAC)
		cs.mu.Lock()
		agg, ok := cs.clients[c.MAC]
		if !ok {
			agg = &ClientAggregate{MAC: c.MAC}
			cs.clients[c.MAC] = agg
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
		cs.mu.Unlock()
	}

	// Counted only once every stripe write has landed, so an observer
	// that sees the count sees the report's client aggregates too.
	// Per-stripe readers (Clients, RadioSeries, ...) are still only
	// eventually consistent while ingests are in flight: they can
	// interleave between stripe updates of a single report. A capture
	// cannot.
	ds.ingests.Add(1)
	s.ingests.Add(1)
}

// EnableObs folds the store's counters into reg: "store.ingests",
// "store.dupes", "store.clients", and "store.shards" as func gauges,
// one "store.stripe.NN.ingests" gauge per device stripe (the load-skew
// signal — a hot stripe means serials are hashing together), and three
// histograms: "store.capture_hold_us" (how long each capture held the
// gate exclusively, i.e. how long ingest stalled), "store.save_us" and
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
	reg.RegisterFunc("store.shards", func() int64 { return int64(s.NumShards()) })
	for i := range s.deviceShards {
		ds := s.deviceShards[i]
		reg.RegisterFunc(obs.Indexed("store.stripe", i, "ingests"),
			func() int64 { return ds.ingests.Load() })
	}
	s.holdDur = reg.Histogram("store.capture_hold_us", obs.DurationBuckets)
	s.saveDur = reg.Histogram("store.save_us", obs.DurationBuckets)
	s.digestDur = reg.Histogram("store.digest_us", obs.DurationBuckets)
}

// EnableTrace attaches a tracer: every sampled report folded in by
// Ingest records a store.ingest span (trace ID read from the report,
// duration covering all stripe writes). Observe-only — stored data and
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
// merges them in network-index order, so every map and slice is folded
// in a deterministic sequence (keys are visited sorted, making merge
// output independent of p's map iteration order).
func (s *Store) Merge(p *Store) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	// Client aggregates, in MAC order.
	for _, agg := range p.Clients() {
		cs := s.clientShardFor(agg.MAC)
		cs.mu.Lock()
		dst, ok := cs.clients[agg.MAC]
		if !ok {
			// First sighting: adopt the partial's aggregate wholesale.
			cs.clients[agg.MAC] = agg
			cs.mu.Unlock()
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
		cs.mu.Unlock()
	}

	// Device-keyed series, in serial (and link-key) order per stripe.
	for _, pd := range p.deviceShards {
		for _, serial := range sortedKeys(pd.seen) {
			seq := pd.seen[serial]
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			if seq > ds.seen[serial] {
				ds.seen[serial] = seq
			}
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(pd.radio) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			ds.radio[serial] = append(ds.radio[serial], pd.radio[serial]...)
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(pd.scans) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			ds.scans[serial] = append(ds.scans[serial], pd.scans[serial]...)
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(pd.crashes) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			ds.crashes[serial] = append(ds.crashes[serial], pd.crashes[serial]...)
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(pd.neighbors) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			m, ok := ds.neighbors[serial]
			if !ok {
				ds.neighbors[serial] = pd.neighbors[serial]
			} else {
				for bssid, e := range pd.neighbors[serial] {
					m[bssid] = e
				}
			}
			ds.mu.Unlock()
		}
		keys := make([]LinkKey, 0, len(pd.links))
		for k := range pd.links {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return lessLinkKey(keys[i], keys[j]) })
		for _, k := range keys {
			src := pd.links[k]
			ds := s.deviceShardFor(k.From)
			ds.mu.Lock()
			series, ok := ds.links[k]
			if !ok {
				ds.links[k] = src
			} else {
				series.Sent = append(series.Sent, src.Sent...)
				series.Deliver = append(series.Deliver, src.Deliver...)
			}
			ds.mu.Unlock()
		}
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

// Stats summarizes ingestion.
func (s *Store) Stats() (ingests, dupes int) {
	return int(s.ingests.Load()), int(s.dupes.Load())
}

// NumClients returns the number of distinct client MACs.
func (s *Store) NumClients() int {
	n := 0
	for _, cs := range s.clientShards {
		cs.mu.Lock()
		n += len(cs.clients)
		cs.mu.Unlock()
	}
	return n
}

// Clients returns the aggregates explicitly sorted by MAC. The sort is
// load-bearing: downstream table rows must not depend on map iteration
// order or on how MACs happen to hash across shards.
func (s *Store) Clients() []*ClientAggregate {
	var out []*ClientAggregate
	for _, cs := range s.clientShards {
		cs.mu.Lock()
		for _, c := range cs.clients {
			out = append(out, c)
		}
		cs.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MAC.Uint64() < out[j].MAC.Uint64() })
	return out
}

// Links returns every stored link series, sorted for determinism.
func (s *Store) Links() []*LinkSeries {
	var out []*LinkSeries
	for _, ds := range s.deviceShards {
		ds.mu.Lock()
		for _, l := range ds.links {
			out = append(out, l)
		}
		ds.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return lessLinkKey(out[i].Key, out[j].Key) })
	return out
}

// RadioSeries returns a device's stored counter samples.
func (s *Store) RadioSeries(serial string) []RadioSample {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.radio[serial]
}

// RadioSerials returns the serials with radio samples, sorted.
func (s *Store) RadioSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string][]RadioSample { return ds.radio })
}

// ScanSeries returns a device's stored scan points.
func (s *Store) ScanSeries(serial string) []ScanPoint {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.scans[serial]
}

// ScanSerials returns the serials with scan data, sorted.
func (s *Store) ScanSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string][]ScanPoint { return ds.scans })
}

// serialKeys collects the keys of one serial-keyed map across all
// shards, sorted.
func serialKeys[V any](shards []*deviceShard, pick func(*deviceShard) map[string]V) []string {
	var out []string
	for _, ds := range shards {
		ds.mu.Lock()
		for k := range pick(ds) {
			out = append(out, k)
		}
		ds.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Neighbors returns a device's deduplicated neighbor table, sorted by
// BSSID.
func (s *Store) Neighbors(serial string) []NeighborEntry {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	m := ds.neighbors[serial]
	out := make([]NeighborEntry, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	ds.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].BSSID.Uint64() < out[j].BSSID.Uint64() })
	return out
}

// NeighborSerials returns the serials with neighbor tables, sorted.
func (s *Store) NeighborSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string]map[dot11.BSSID]NeighborEntry { return ds.neighbors })
}

// Crashes returns a device's stored crash records.
func (s *Store) Crashes(serial string) []telemetry.CrashRecord {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.crashes[serial]
}

// CrashSerials returns the serials with crash reports, sorted.
func (s *Store) CrashSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string][]telemetry.CrashRecord { return ds.crashes })
}

// NeighborCount returns the size of a device's deduplicated neighbor
// table (both bands).
func (s *Store) NeighborCount(serial string) int {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.neighbors[serial])
}

// snapshot is a point-in-time copy of the store: what capture returns,
// what Digest, Save and ExtractNetworks work on with no lock held, and
// the gob-persisted form. The device-keyed fields predate sharding
// (flat maps), so snapshots round-trip across shard counts.
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

// capture copies the store as it stands between two reports. The gate
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
	s.gate.Lock()
	sp := obs.StartSpan(s.holdDur)
	nClients := 0
	for _, cs := range s.clientShards {
		nClients += len(cs.clients)
	}
	snap := &snapshot{
		Seen:       make(map[string]uint64),
		ClientList: make([]ClientAggregate, 0, nClients),
		Links:      make(map[LinkKey]*LinkSeries),
		Radio:      make(map[string][]RadioSample),
		Scans:      make(map[string][]ScanPoint),
		Neighbors:  make(map[string]map[dot11.BSSID]NeighborEntry),
		Crashes:    make(map[string][]telemetry.CrashRecord),
	}
	for _, cs := range s.clientShards {
		for _, c := range cs.clients {
			c.appsShared = true
			cp := *c
			cp.Apps = slices.Clip(c.Apps)
			cp.UserAgents = slices.Clip(c.UserAgents)
			cp.DHCPFingerprints = slices.Clip(c.DHCPFingerprints)
			snap.ClientList = append(snap.ClientList, cp)
		}
	}
	nLinks := 0
	for _, ds := range s.deviceShards {
		nLinks += len(ds.links)
	}
	links := make([]LinkSeries, 0, nLinks)
	for _, ds := range s.deviceShards {
		for k, v := range ds.seen {
			snap.Seen[k] = v
		}
		for k, l := range ds.links {
			links = append(links, LinkSeries{Key: k, Sent: slices.Clip(l.Sent), Deliver: slices.Clip(l.Deliver)})
			snap.Links[k] = &links[len(links)-1]
		}
		for k, v := range ds.radio {
			snap.Radio[k] = slices.Clip(v)
		}
		for k, v := range ds.scans {
			snap.Scans[k] = slices.Clip(v)
		}
		for k, v := range ds.crashes {
			snap.Crashes[k] = slices.Clip(v)
		}
		for k, m := range ds.neighbors {
			cp := make(map[dot11.BSSID]NeighborEntry, len(m))
			for b, e := range m {
				cp[b] = e
			}
			snap.Neighbors[k] = cp
		}
	}
	s.migMu.Lock()
	if len(s.absorbed) > 0 {
		snap.Absorbed = make(map[string]bool, len(s.absorbed))
		for k := range s.absorbed {
			snap.Absorbed[k] = true
		}
	}
	if len(s.parted) > 0 {
		snap.Parted = make(map[uint64]bool, len(s.parted))
		for k := range s.parted {
			snap.Parted[k] = true
		}
	}
	s.migMu.Unlock()
	s.gate.Unlock()
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

// Load replaces the store contents from a gob snapshot. The shard
// layout is never swapped out — the slice headers and mask are
// effectively immutable after NewStoreShards, which is what lets every
// other method read them without synchronization — so Load instead
// resets each existing stripe and folds the decoded entries in under
// the stripe locks. That makes Load race-free against concurrent Ingest
// and readers, and a capture sees the store either before or after the
// load, but per-stripe readers and ingests can observe a mix of old and
// new entries while it is in flight. Callers wanting a consistent view
// should load before serving (merakid does).
func (s *Store) Load(r io.Reader) error {
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
// everything snap references.
func (s *Store) install(snap *snapshot) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	for _, cs := range s.clientShards {
		cs.mu.Lock()
		cs.clients = make(map[dot11.MAC]*ClientAggregate)
		cs.mu.Unlock()
	}
	for _, ds := range s.deviceShards {
		ds.mu.Lock()
		ds.seen = make(map[string]uint64)
		ds.radio = make(map[string][]RadioSample)
		ds.scans = make(map[string][]ScanPoint)
		ds.neighbors = make(map[string]map[dot11.BSSID]NeighborEntry)
		ds.crashes = make(map[string][]telemetry.CrashRecord)
		ds.links = make(map[LinkKey]*LinkSeries)
		ds.ingests.Store(0)
		ds.mu.Unlock()
	}
	s.ingests.Store(0)
	s.dupes.Store(0)
	s.migMu.Lock()
	s.absorbed, s.parted = nil, nil
	for k := range snap.Absorbed {
		if s.absorbed == nil {
			s.absorbed = make(map[string]bool)
		}
		s.absorbed[k] = true
	}
	for k := range snap.Parted {
		if s.parted == nil {
			s.parted = make(map[uint64]bool)
		}
		s.parted[k] = true
	}
	s.migMu.Unlock()
	for i := range snap.ClientList {
		c := &snap.ClientList[i]
		cs := s.clientShardFor(c.MAC)
		cs.mu.Lock()
		cs.clients[c.MAC] = c
		cs.mu.Unlock()
	}
	withDeviceShard := func(serial string, fill func(*deviceShard)) {
		ds := s.deviceShardFor(serial)
		ds.mu.Lock()
		fill(ds)
		ds.mu.Unlock()
	}
	for serial, seq := range snap.Seen {
		withDeviceShard(serial, func(ds *deviceShard) { ds.seen[serial] = seq })
	}
	for k, v := range snap.Links {
		withDeviceShard(k.From, func(ds *deviceShard) { ds.links[k] = v })
	}
	for serial, v := range snap.Radio {
		withDeviceShard(serial, func(ds *deviceShard) { ds.radio[serial] = v })
	}
	for serial, v := range snap.Scans {
		withDeviceShard(serial, func(ds *deviceShard) { ds.scans[serial] = v })
	}
	for serial, v := range snap.Neighbors {
		withDeviceShard(serial, func(ds *deviceShard) { ds.neighbors[serial] = v })
	}
	for serial, v := range snap.Crashes {
		withDeviceShard(serial, func(ds *deviceShard) { ds.crashes[serial] = v })
	}
}

// MergeSnapshot folds a gob snapshot into the store without resetting
// what it already holds — the shard-aware counterpart to Load. The
// scatter-gather router uses it to rebuild a cluster-wide view: each
// shard's snapshot decodes into a scratch store and merges through the
// same deterministic path the parallel epoch pipeline uses, so the
// merged digest is independent of fetch order. Ingestion counters from
// the snapshot are not recovered (the snapshot format predates them);
// digests never include counters, so equivalence is unaffected.
func (s *Store) MergeSnapshot(r io.Reader) error {
	tmp := NewStoreShards(s.NumShards())
	if err := tmp.Load(r); err != nil {
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
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}
