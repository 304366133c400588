package backend

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// model is the store's executable specification, a deliberately naive
// reference FuzzStoreOps holds Store and DurableStore to: one mutex and
// plain maps, no copy-on-write, interning or partitions, and no call into
// the store's fold or capture code, so a defect there cannot hide in the
// model too. Its digest is fmtDigest's. The rules it states:
//   - Ingest drops a report whose nonzero seqno is at or below its
//     serial's mark (a dupe) and folds the rest in: series append,
//     neighbors overwrite by BSSID, a client takes the latest band, RSSI
//     and capabilities, its sets grow and its app totals add up. Merge
//     folds a partial the same way without dedup; marks take the maximum.
//   - A network owns what its serials key and the clients whose lowest
//     parseable AP serial is its. Extract copies that, with no
//     bookkeeping or counters. Absorb of a new token replaces the
//     networks with the slice, unparts them and keeps the token; a known
//     token changes nothing. Drop deletes them and forgets the token.
//   - Stats counts the reports folded in since the store was built or
//     last loaded: a snapshot carries no counters, so Load starts from
//     zero and a recovered durable store counts only its WAL replay.
type model struct {
	mu             sync.Mutex
	clients        map[dot11.MAC]*modelClient
	seen           map[string]uint64
	radio          map[string][]RadioSample
	scans          map[string][]ScanPoint
	crashes        map[string][]telemetry.CrashRecord
	neighbors      map[string]map[dot11.BSSID]NeighborEntry
	links          map[LinkKey]*LinkSeries
	absorbed       map[string]bool
	parted         map[uint64]bool
	ingests, dupes int
}

// modelClient is one client MAC with every set kept as a map.
type modelClient struct {
	band               dot11.Band
	rssi               int32
	caps               dot11.Capabilities
	apps               map[string]telemetry.AppUsageRecord
	uas, fps, apSerial map[string]bool
}

func newModel() *model {
	return &model{
		clients: map[dot11.MAC]*modelClient{}, seen: map[string]uint64{},
		radio: map[string][]RadioSample{}, scans: map[string][]ScanPoint{},
		crashes: map[string][]telemetry.CrashRecord{}, neighbors: map[string]map[dot11.BSSID]NeighborEntry{},
		links: map[LinkKey]*LinkSeries{}, absorbed: map[string]bool{}, parted: map[uint64]bool{},
	}
}

// client returns mac's client with its latest band, RSSI and caps set.
func (m *model) client(mac dot11.MAC, band dot11.Band, rssi int32, caps dot11.Capabilities) *modelClient {
	c, ok := m.clients[mac]
	if !ok {
		c = &modelClient{apps: map[string]telemetry.AppUsageRecord{}, uas: map[string]bool{}, fps: map[string]bool{}, apSerial: map[string]bool{}}
		m.clients[mac] = c
	}
	c.band, c.rssi, c.caps = band, rssi, caps
	return c
}

func (c *modelClient) addApp(a telemetry.AppUsageRecord) {
	t := c.apps[a.App]
	c.apps[a.App] = telemetry.AppUsageRecord{App: a.App, UpBytes: t.UpBytes + a.UpBytes, DownBytes: t.DownBytes + a.DownBytes, Flows: t.Flows + a.Flows}
}

// network is the network of the client's lowest parseable AP serial.
func (c *modelClient) network() (uint64, bool) {
	for _, serial := range sortedKeys(c.apSerial) {
		if id, ok := NetworkOfSerial(serial); ok {
			return id, true
		}
	}
	return 0, false
}

func (m *model) ingest(r *telemetry.Report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.SeqNo != 0 {
		if r.SeqNo <= m.seen[r.Serial] {
			m.dupes++
			return
		}
		m.seen[r.Serial] = r.SeqNo
	}
	for _, rs := range r.Radios {
		if cyc := float64(rs.CycleUS); cyc != 0 {
			m.radio[r.Serial] = append(m.radio[r.Serial], RadioSample{Timestamp: r.Timestamp, Band: rs.Band, Channel: rs.Channel,
				Busy: float64(rs.RxClearUS) / cyc, Decodable: float64(rs.Rx11US) / cyc, Tx: float64(rs.TxUS) / cyc})
		}
	}
	for _, l := range r.LinkWindows {
		m.appendLink(LinkKey{From: r.Serial, To: l.Peer, Band: l.Band}, []uint32{l.Sent}, []uint32{l.Delivered})
	}
	for _, sc := range r.ScanSamples {
		m.scans[r.Serial] = append(m.scans[r.Serial], ScanPoint{Timestamp: r.Timestamp, Band: sc.Band, Channel: sc.Channel,
			Busy: float64(sc.BusyPermille) / 1000, Decodable: float64(sc.DecodablePermille) / 1000})
	}
	if len(r.Crashes) > 0 {
		m.crashes[r.Serial] = append(m.crashes[r.Serial], r.Crashes...)
	}
	for _, n := range r.Neighbors {
		m.setNeighbor(r.Serial, NeighborEntry{BSSID: n.BSSID, SSID: n.SSID, Band: n.Band, Channel: n.Channel, RSSIdB: n.RSSIdB, Vendor: n.Vendor})
	}
	for _, cr := range r.Clients {
		c := m.client(cr.MAC, cr.Band, cr.RSSIdB, cr.Caps)
		c.apSerial[r.Serial] = true
		for _, ua := range cr.UserAgents {
			c.uas[ua] = true
		}
		for _, fp := range cr.DHCPFingerprints {
			c.fps[string(fp)] = true
		}
		for _, a := range cr.Apps {
			c.addApp(a)
		}
	}
	m.ingests++
}

func (m *model) appendLink(k LinkKey, sent, deliver []uint32) {
	if m.links[k] == nil {
		m.links[k] = &LinkSeries{Key: k}
	}
	m.links[k].Sent = append(m.links[k].Sent, sent...)
	m.links[k].Deliver = append(m.links[k].Deliver, deliver...)
}

func (m *model) setNeighbor(serial string, n NeighborEntry) {
	if m.neighbors[serial] == nil {
		m.neighbors[serial] = map[dot11.BSSID]NeighborEntry{}
	}
	m.neighbors[serial][n.BSSID] = n
}

// merge folds p into m, copying everything it takes from p.
func (m *model) merge(p *model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for mac, pc := range p.clients {
		c := m.client(mac, pc.band, pc.rssi, pc.caps)
		maps.Copy(c.apSerial, pc.apSerial)
		maps.Copy(c.uas, pc.uas)
		maps.Copy(c.fps, pc.fps)
		for _, a := range pc.apps {
			c.addApp(a)
		}
	}
	for serial, seq := range p.seen {
		m.seen[serial] = max(m.seen[serial], seq)
	}
	appendEach(m.radio, p.radio)
	appendEach(m.scans, p.scans)
	appendEach(m.crashes, p.crashes)
	for serial, ns := range p.neighbors {
		for _, n := range ns {
			m.setNeighbor(serial, n)
		}
	}
	for k, l := range p.links {
		m.appendLink(k, l.Sent, l.Deliver)
	}
	maps.Copy(m.absorbed, p.absorbed)
	maps.Copy(m.parted, p.parted)
	m.ingests += p.ingests
	m.dupes += p.dupes
}

func appendEach[V any](dst, src map[string][]V) {
	for serial, v := range src {
		dst[serial] = append(dst[serial], v...)
	}
}

// loaded is what Load of m's snapshot installs: m without counters.
func (m *model) loaded() *model {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := newModel()
	c.merge(m)
	c.ingests, c.dupes = 0, 0
	return c
}

// sweep passes every keyed entry's network to gone, deletes the entries
// it selects and counts the distinct networks and the entries deleted.
func (m *model) sweep(gone func(id uint64, ok bool) bool) (networks, entries int) {
	hit := map[uint64]bool{}
	del := func(id uint64, ok bool) bool {
		if gone(id, ok) {
			hit[id] = true
			entries++
			return true
		}
		return false
	}
	bySerial := func(serial string) bool { return del(NetworkOfSerial(serial)) }
	maps.DeleteFunc(m.seen, func(s string, _ uint64) bool { return bySerial(s) })
	maps.DeleteFunc(m.radio, func(s string, _ []RadioSample) bool { return bySerial(s) })
	maps.DeleteFunc(m.scans, func(s string, _ []ScanPoint) bool { return bySerial(s) })
	maps.DeleteFunc(m.crashes, func(s string, _ []telemetry.CrashRecord) bool { return bySerial(s) })
	maps.DeleteFunc(m.neighbors, func(s string, _ map[dot11.BSSID]NeighborEntry) bool { return bySerial(s) })
	maps.DeleteFunc(m.links, func(k LinkKey, _ *LinkSeries) bool { return bySerial(k.From) })
	maps.DeleteFunc(m.clients, func(_ dot11.MAC, c *modelClient) bool { return del(c.network()) })
	return len(hit), entries
}

// in selects the entries of the given networks.
func in(ids []uint64) func(uint64, bool) bool {
	return func(id uint64, ok bool) bool { return ok && slices.Contains(ids, id) }
}

func (m *model) extract(ids []uint64) *model {
	slice := m.loaded()
	slice.sweep(func(id uint64, ok bool) bool { return !in(ids)(id, ok) })
	clear(slice.absorbed)
	clear(slice.parted)
	return slice
}

func (m *model) absorb(token string, ids []uint64, slice *model) bool {
	m.mu.Lock()
	if m.absorbed[token] {
		m.mu.Unlock()
		return false
	}
	m.sweep(in(ids))
	for _, id := range ids {
		delete(m.parted, id)
	}
	m.absorbed[token] = true
	m.mu.Unlock()
	m.merge(slice)
	return true
}

func (m *model) drop(token string, ids []uint64) (networks, entries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.absorbed, token)
	return m.sweep(in(ids))
}

// part marks the given networks parted (on) or clears the mark.
func (m *model) part(ids []uint64, on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		m.parted[id] = on
	}
	maps.DeleteFunc(m.parted, func(_ uint64, on bool) bool { return !on })
}

// networks lists every network owning at least one entry, sorted.
func (m *model) networks() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []uint64
	m.sweep(func(id uint64, ok bool) bool {
		if ok && !slices.Contains(out, id) {
			out = append(out, id)
		}
		return false
	})
	slices.Sort(out)
	return out
}

// digest renders m as a snapshot and hashes it with fmtDigest.
func (m *model) digest() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := &snapshot{Seen: m.seen, Radio: m.radio, Scans: m.scans, Crashes: m.crashes, Neighbors: m.neighbors, Links: m.links}
	for mac, c := range m.clients {
		agg := ClientAggregate{MAC: mac, Band: c.band, RSSIdB: c.rssi, Caps: c.caps, UserAgents: sortedKeys(c.uas), APs: sortedKeys(c.apSerial)}
		for _, fp := range sortedKeys(c.fps) {
			agg.DHCPFingerprints = append(agg.DHCPFingerprints, []byte(fp))
		}
		for _, name := range sortedKeys(c.apps) {
			agg.Apps = append(agg.Apps, c.apps[name])
		}
		snap.ClientList = append(snap.ClientList, agg)
	}
	sort.Slice(snap.ClientList, func(i, j int) bool { return snap.ClientList[i].MAC.Uint64() < snap.ClientList[j].MAC.Uint64() })
	return fmtDigest(snap)
}
