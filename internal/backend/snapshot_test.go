package backend

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/obs"
	"wlanscale/internal/telemetry"
)

// tearReport builds writer w's report number seq: eight clients, each
// adding one flow of one app. After
// the store has taken reports 1..n of a serial, every one of that
// serial's clients therefore has exactly n flows.
func tearReport(w int, seq uint64) *telemetry.Report {
	r := &telemetry.Report{Serial: fmt.Sprintf("Q2TR-0001-%04d", w), SeqNo: seq}
	for k := 0; k < 8; k++ {
		r.Clients = append(r.Clients, telemetry.ClientRecord{
			MAC:  dot11.MAC{0xac, byte(w), 0, 0, 0, byte(k)},
			Band: dot11.Band5,
			Apps: []telemetry.AppUsageRecord{{App: "a", UpBytes: 1, Flows: 1}},
		})
	}
	return r
}

// TestSnapshotNeverTearsAReport: a snapshot is a cut between reports.
// While writers ingest, every Save→Load must show, for each serial, a
// dedup mark equal to the flow count of each of its clients. With the
// old lock-everything walk, Ingest released its device stripe before
// taking client stripes while the walk took client stripes first, so a
// snapshot could hold seen=N without report N's client bytes — and WAL
// replay over such a checkpoint would dedup the report away for good.
func TestSnapshotNeverTearsAReport(t *testing.T) {
	const writers, snapshots = 4, 40
	s := NewStore()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Ingest(tearReport(w, seq))
			}
		}(w)
	}
	defer wg.Wait()
	defer close(stop)

	for i := 0; i < snapshots; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got := NewStore()
		if err := got.Load(&buf); err != nil {
			t.Fatal(err)
		}
		for _, c := range got.Clients() {
			serial := c.APs[0]
			seen := got.seen[serial]
			if flows := uint64(appOf(c, "a").Flows); flows != seen {
				t.Fatalf("snapshot %d: serial %s seen=%d but client %s has %d flows", i, serial, seen, c.MAC, flows)
			}
		}
	}
}

// TestCheckpointIsExactCut: a checkpoint is the state at its LSN, no
// more. Seq-0 reports have no dedup to hide behind (the bench prebuilds
// them that way), so a record at or above the LSN that raced into the
// checkpoint's snapshot would be counted again by replay. Recovery
// starts from the newest checkpoint only, so each round takes its last
// one with the writers still running and recovers from it.
func TestCheckpointIsExactCut(t *testing.T) {
	const rounds, writers, perBatch, checkpoints = 6, 4, 4, 10
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		d, _ := mustOpenDurable(t, dir, DurableOptions{})

		stop := make(chan struct{})
		batches := make([]int, writers)
		errs := make(chan error, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				batch := make([]*telemetry.Report, perBatch)
				for i := range batch {
					batch[i] = tearReport(w, 0)
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := d.IngestBatch(batch, nil); err != nil {
						errs <- err
						return
					}
					batches[w]++
				}
			}(w)
		}
		for i := 0; i < checkpoints; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		control := NewStore()
		for w, n := range batches {
			for i := 0; i < n*perBatch; i++ {
				control.Ingest(tearReport(w, 0))
			}
		}
		d2, stats := mustOpenDurable(t, dir, DurableOptions{})
		got := d2.Digest()
		d2.Close()
		if want := control.Digest(); got != want {
			t.Fatalf("round %d: recovered digest != control of %v batches (%+v)", round, batches, stats)
		}
	}
}

// TestLoadLegacySnapshot: testdata/snapshot-pr12.gob was written by the
// last build whose ClientAggregate held Apps and APs as maps (20
// durableReports, network 7 parted, token "tok-legacy" absorbed). After
// an upgrade every kept checkpoint generation is in that format, so it
// must load — to the digest that build computed for it.
func TestLoadLegacySnapshot(t *testing.T) {
	const parentDigest = "a1ae1b6d6e42dbfc65edf89c9aef489774447b7aabdc39c403665f19cd89b7b9"
	s := NewStore()
	if err := s.LoadFile("testdata/snapshot-pr12.gob"); err != nil {
		t.Fatal(err)
	}
	if got := s.Digest(); got != parentDigest {
		t.Fatalf("legacy snapshot digest = %s, want the writer's %s", got, parentDigest)
	}
	if want := volatileDigest(durableReports(20)); parentDigest != want {
		t.Fatalf("re-ingesting the fixture's reports digests to %s", want)
	}
	if !s.IsParted(7) || !s.HasAbsorbed("tok-legacy") {
		t.Fatal("legacy snapshot lost its rebalance bookkeeping")
	}

	// What this build writes carries the clients only in the new field.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Clients != nil || len(snap.ClientList) != s.NumClients() {
		t.Fatalf("new snapshot: %d legacy clients, %d listed, want 0 and %d", len(snap.Clients), len(snap.ClientList), s.NumClients())
	}
}

// TestLoadRefusesUnsortedClient: Ingest's merge relies on sorted app and
// AP sets, so a snapshot that breaks them is an error, not a store that
// double-counts later.
func TestLoadRefusesUnsortedClient(t *testing.T) {
	for name, c := range map[string]ClientAggregate{
		"apps": {MAC: clientA, Apps: []telemetry.AppUsageRecord{{App: "b"}, {App: "a"}}},
		"dup":  {MAC: clientA, Apps: []telemetry.AppUsageRecord{{App: "a"}, {App: "a"}}},
		"aps":  {MAC: clientA, APs: []string{"AP-2", "AP-1"}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&snapshot{ClientList: []ClientAggregate{c}}); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		s.Ingest(usageReport("AP-1", 1, peerB, "x", 1, 1))
		if err := s.Load(&buf); err == nil {
			t.Errorf("%s: unsorted snapshot accepted", name)
		}
		if s.NumClients() != 1 {
			t.Errorf("%s: refused load changed the store", name)
		}
	}
}

// fmtDigest is the fmt-based rendering Digest had before it was rebuilt
// on strconv appends, kept as the oracle for the byte stream: the hash
// of what it writes is what every earlier build computed.
func fmtDigest(snap *snapshot) string {
	h := sha256.New()
	for i := range snap.ClientList {
		c := &snap.ClientList[i]
		fmt.Fprintf(h, "client %s band=%d rssi=%d caps=%x\n", c.MAC, c.Band, c.RSSIdB, c.Caps.Marshal())
		for _, a := range c.Apps {
			fmt.Fprintf(h, " app %s up=%d down=%d flows=%d\n", a.App, a.UpBytes, a.DownBytes, a.Flows)
		}
		uas := append([]string(nil), c.UserAgents...)
		sort.Strings(uas)
		for _, ua := range uas {
			fmt.Fprintf(h, " ua %s\n", ua)
		}
		fps := make([]string, 0, len(c.DHCPFingerprints))
		for _, fp := range c.DHCPFingerprints {
			fps = append(fps, hex.EncodeToString(fp))
		}
		sort.Strings(fps)
		for _, fp := range fps {
			fmt.Fprintf(h, " fp %s\n", fp)
		}
		for _, serial := range c.APs {
			fmt.Fprintf(h, " ap %s\n", serial)
		}
	}
	for _, serial := range sortedKeys(snap.Seen) {
		fmt.Fprintf(h, "seen %s %d\n", serial, snap.Seen[serial])
	}
	for _, serial := range sortedKeys(snap.Radio) {
		fmt.Fprintf(h, "radio %s", serial)
		for _, r := range snap.Radio[serial] {
			fmt.Fprintf(h, " %d/%d/%d/%g/%g/%g", r.Timestamp, r.Band, r.Channel, r.Busy, r.Decodable, r.Tx)
		}
		io.WriteString(h, "\n")
	}
	for _, serial := range sortedKeys(snap.Scans) {
		fmt.Fprintf(h, "scan %s", serial)
		for _, p := range snap.Scans[serial] {
			fmt.Fprintf(h, " %d/%d/%d/%g/%g", p.Timestamp, p.Band, p.Channel, p.Busy, p.Decodable)
		}
		io.WriteString(h, "\n")
	}
	for _, serial := range sortedKeys(snap.Crashes) {
		fmt.Fprintf(h, "crash %s", serial)
		for _, c := range snap.Crashes[serial] {
			fmt.Fprintf(h, " %d/%d/%s/%x/%d/%d", c.Timestamp, c.Kind, c.Firmware, c.PC, c.FreeKB, c.NeighborCount)
		}
		io.WriteString(h, "\n")
	}
	for _, serial := range sortedKeys(snap.Neighbors) {
		m := snap.Neighbors[serial]
		bssids := make([]dot11.BSSID, 0, len(m))
		for b := range m {
			bssids = append(bssids, b)
		}
		sort.Slice(bssids, func(i, j int) bool { return bssids[i].Uint64() < bssids[j].Uint64() })
		fmt.Fprintf(h, "neigh %s", serial)
		for _, b := range bssids {
			n := m[b]
			fmt.Fprintf(h, " %s/%s/%d/%d/%d/%s", n.BSSID, n.SSID, n.Band, n.Channel, n.RSSIdB, n.Vendor)
		}
		io.WriteString(h, "\n")
	}
	links := make([]LinkKey, 0, len(snap.Links))
	for k := range snap.Links {
		links = append(links, k)
	}
	sort.Slice(links, func(i, j int) bool { return lessLinkKey(links[i], links[j]) })
	for _, k := range links {
		l := snap.Links[k]
		fmt.Fprintf(h, "link %s->%s band=%d sent=%v del=%v\n", k.From, k.To, k.Band, l.Sent, l.Deliver)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// randomReport draws every stored field from src: user agents and
// fingerprints from small pools (so sets overlap and arrive in varying
// order), neighbors that overwrite in place, crashes, links and both
// radio series, with the float ratios Ingest computes from counters.
func randomReport(src *rand.Rand, net, ap int, seq uint64) *telemetry.Report {
	r := &telemetry.Report{
		Serial:    fmt.Sprintf("Q2RN-%04d-%04d", net, ap),
		SeqNo:     seq,
		Timestamp: 1_400_000_000 + seq*300 + uint64(src.Intn(300)),
	}
	for k, n := 0, src.Intn(5); k < n; k++ {
		c := telemetry.ClientRecord{
			MAC:    dot11.MAC{0xac, byte(net), byte(src.Intn(3)), 0, 0, byte(src.Intn(12))},
			Band:   dot11.Band(src.Intn(2)),
			RSSIdB: int32(src.Intn(70)) - 10,
			Caps:   dot11.UnmarshalCapabilities([2]byte{byte(src.Intn(256)), byte(src.Intn(256))}),
		}
		for j, n := 0, src.Intn(3); j < n; j++ {
			c.UserAgents = append(c.UserAgents, fmt.Sprintf("agent/%d (%d)", src.Intn(6), src.Intn(3)))
		}
		for j, n := 0, src.Intn(3); j < n; j++ {
			fp := make([]byte, 1+src.Intn(6))
			for i := range fp {
				fp[i] = byte(src.Intn(4)) << 6
			}
			c.DHCPFingerprints = append(c.DHCPFingerprints, fp)
		}
		for j, n := 0, src.Intn(6); j < n; j++ {
			c.Apps = append(c.Apps, telemetry.AppUsageRecord{
				App: fmt.Sprintf("app-%02d", src.Intn(20)), UpBytes: src.Uint64() >> 20, DownBytes: src.Uint64() >> 16, Flows: uint32(src.Intn(9)),
			})
		}
		r.Clients = append(r.Clients, c)
	}
	for k, n := 0, src.Intn(3); k < n; k++ {
		cyc := uint64(src.Intn(3)) * 1_000_003
		r.Radios = append(r.Radios, telemetry.RadioStats{
			Band: dot11.Band(k % 2), Channel: 1 + src.Intn(160), CycleUS: cyc,
			RxClearUS: uint64(src.Int63n(1_000_003)), Rx11US: uint64(src.Int63n(900_001)), TxUS: uint64(src.Int63n(7)),
		})
	}
	for k, n := 0, src.Intn(3); k < n; k++ {
		r.ScanSamples = append(r.ScanSamples, telemetry.ScanSample{
			Band: dot11.Band(src.Intn(2)), Channel: 1 + src.Intn(160),
			BusyPermille: uint32(src.Intn(1001)), DecodablePermille: uint32(src.Intn(1001)),
		})
	}
	for k, n := 0, src.Intn(3); k < n; k++ {
		r.LinkWindows = append(r.LinkWindows, telemetry.LinkWindow{
			Peer: dot11.MAC{0x00, 0x18, 0x0a, byte(net), 0, byte(src.Intn(3))}, Band: dot11.Band(src.Intn(2)),
			Sent: uint32(src.Intn(40)), Delivered: uint32(src.Intn(40)),
		})
	}
	for k, n := 0, src.Intn(4); k < n; k++ {
		r.Neighbors = append(r.Neighbors, telemetry.NeighborRecord{
			BSSID: dot11.MAC{0x02, 0, 0, 0, byte(src.Intn(2)), byte(src.Intn(8))}, SSID: fmt.Sprintf("ssid %d", src.Intn(5)),
			Band: dot11.Band(src.Intn(2)), Channel: 1 + src.Intn(160), RSSIdB: int32(src.Intn(60)) - 5, Vendor: []string{"", "Cisco", "TP-Link"}[src.Intn(3)],
		})
	}
	if src.Intn(4) == 0 {
		r.Crashes = append(r.Crashes, telemetry.CrashRecord{
			Timestamp: r.Timestamp, Kind: uint8(src.Intn(3)), Firmware: fmt.Sprintf("r%d.%d", 20+src.Intn(5), src.Intn(10)),
			PC: src.Uint64(), FreeKB: uint32(src.Intn(1 << 16)), NeighborCount: uint32(src.Intn(300)),
		})
	}
	return r
}

// TestDigestByteStream holds the strconv-built digest to the fmt-based
// one it replaced, over an empty store, ten seeded random stores, and
// each of those after a DeleteNetworks.
func TestDigestByteStream(t *testing.T) {
	check := func(name string, s *Store) {
		t.Helper()
		snap := s.capture()
		if got, want := snap.digest(), fmtDigest(snap); got != want {
			t.Fatalf("%s: digest %s, fmt rendering gives %s", name, got, want)
		}
	}
	check("empty", NewStore())
	for seed := int64(1); seed <= 10; seed++ {
		src := rand.New(rand.NewSource(seed))
		s := NewStore()
		seq := map[string]uint64{}
		for i := 0; i < 400; i++ {
			net, ap := 1+src.Intn(4), src.Intn(3)
			key := fmt.Sprint(net, ap)
			seq[key]++
			s.Ingest(randomReport(src, net, ap, seq[key]))
		}
		check(fmt.Sprintf("seed %d", seed), s)
		s.DeleteNetworks(IDSet([]uint64{2, 3}), NetworkOfSerial)
		check(fmt.Sprintf("seed %d after delete", seed), s)
	}
}

// TestCaptureHoldObserved: each Save and Digest records one
// capture-hold sample and one sample of the off-lock work that follows,
// and on the paced-ops store shape the hold — the only part ingest
// waits for — is at most a quarter of an encode and a tenth of a whole
// Digest call. Medians over a few calls, so that one garbage collection
// landing inside a hold does not decide the outcome.
func TestCaptureHoldObserved(t *testing.T) {
	s := snapshotBenchStore(t)
	reg := obs.NewRegistry()
	s.EnableObs(reg)
	hold := reg.Histogram("store.capture_hold_us", nil)
	save := reg.Histogram("store.save_us", nil)
	digest := reg.Histogram("store.digest_us", nil)

	if err := s.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	if hold.Count() != 1 || save.Count() != 1 || digest.Count() != 0 {
		t.Fatalf("after Save: hold=%d save=%d digest=%d samples, want 1/1/0", hold.Count(), save.Count(), digest.Count())
	}
	s.Digest()
	if hold.Count() != 2 || digest.Count() != 1 {
		t.Fatalf("after Digest: hold=%d digest=%d samples, want 2/1", hold.Count(), digest.Count())
	}

	// medians runs op a few times and returns the median hold and the
	// median of the histogram that times op's off-lock part.
	medians := func(after *obs.Histogram, op func()) (int64, int64) {
		var holds, afters []int64
		for i := 0; i < 7; i++ {
			h0, a0 := hold.Sum(), after.Sum()
			op()
			holds = append(holds, hold.Sum()-h0)
			afters = append(afters, after.Sum()-a0)
		}
		slices.Sort(holds)
		slices.Sort(afters)
		return holds[len(holds)/2], afters[len(afters)/2]
	}
	h, e := medians(save, func() { s.Save(io.Discard) })
	if h*4 > e {
		t.Errorf("Save held the lock %d µs and encoded for %d µs; want a hold under a quarter", h, e)
	}
	h, d := medians(digest, func() { s.Digest() })
	if h*10 > h+d {
		t.Errorf("Digest held the lock %d µs of %d µs; want at most a tenth", h, h+d)
	}
}

// snapshotBenchStore builds the paced-ops shape: 640 APs × 8 clients
// (5,120 clients, 13 apps each) and 30,000 reports.
func snapshotBenchStore(tb testing.TB) *Store {
	const aps, clientsPerAP, reports, apps = 640, 8, 30_000, 13
	s := NewStore()
	names := make([]string, apps)
	for i := range names {
		names[i] = fmt.Sprintf("application-%02d", i)
	}
	for i := 0; i < reports; i++ {
		ap := i % aps
		r := &telemetry.Report{
			Serial: fmt.Sprintf("Q2BN-%04d-%04d", ap/16, ap%16), SeqNo: uint64(i/aps + 1), Timestamp: uint64(1_400_000_000 + i/aps*300),
			Radios: []telemetry.RadioStats{
				{Band: dot11.Band24, Channel: 6, CycleUS: 1_000_000, RxClearUS: uint64(200_000 + i%1000), Rx11US: 150_000, TxUS: 20_000},
				{Band: dot11.Band5, Channel: 36, CycleUS: 1_000_000, RxClearUS: uint64(100_000 + i%777), Rx11US: 80_000, TxUS: 30_000},
			},
		}
		for k := 0; k < clientsPerAP; k++ {
			c := telemetry.ClientRecord{
				MAC: dot11.MAC{0xac, 0xbc, byte(ap >> 8), byte(ap), 0, byte(k)}, Band: dot11.Band5, RSSIdB: 30,
				Caps:             dot11.Capabilities{N: true, Streams: 2}.Normalize(),
				UserAgents:       []string{"Mozilla/5.0 (bench)"},
				DHCPFingerprints: [][]byte{{1, 3, 6, 15, 119, 252}},
			}
			for _, name := range names {
				c.Apps = append(c.Apps, telemetry.AppUsageRecord{App: name, UpBytes: uint64(i), DownBytes: uint64(i) * 9, Flows: 1})
			}
			r.Clients = append(r.Clients, c)
		}
		s.Ingest(r)
	}
	if s.NumClients() != aps*clientsPerAP {
		tb.Fatalf("bench store has %d clients", s.NumClients())
	}
	return s
}

// BenchmarkStoreSnapshot measures the three costs of a snapshot on the
// paced-ops store shape. "hold" reports only the exclusive lock section
// of a capture (what ingest waits for) as its ns/op; "digest" and
// "save" are the whole calls, capture included.
func BenchmarkStoreSnapshot(b *testing.B) {
	s := snapshotBenchStore(b)
	reg := obs.NewRegistry()
	s.EnableObs(reg)
	hold := reg.Histogram("store.capture_hold_us", nil)

	b.Run("hold", func(b *testing.B) {
		b.ReportAllocs()
		before := hold.Sum()
		for i := 0; i < b.N; i++ {
			// Collect the previous capture first: the figure gated is the
			// copy, not how much of a collection lands inside it.
			runtime.GC()
			s.capture()
		}
		b.ReportMetric(float64(hold.Sum()-before)*1e3/float64(b.N), "ns/op")
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Digest()
		}
	})
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
