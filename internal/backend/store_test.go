package backend

import (
	"sync"
	"testing"

	"wlanscale/internal/apps"
	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

var (
	clientA = dot11.MAC{0xac, 0xbc, 0x32, 0, 0, 1}
	peerB   = dot11.MAC{0x00, 0x18, 0x0a, 0, 0, 2}
)

func usageReport(serial string, seq uint64, mac dot11.MAC, app string, up, down uint64) *telemetry.Report {
	return &telemetry.Report{
		Serial: serial,
		SeqNo:  seq,
		Clients: []telemetry.ClientRecord{{
			MAC:  mac,
			Band: dot11.Band24,
			Apps: []telemetry.AppUsageRecord{{App: app, UpBytes: up, DownBytes: down, Flows: 1}},
		}},
	}
}

// appOf returns c's totals for one application (zero when absent).
func appOf(c *ClientAggregate, name string) telemetry.AppUsageRecord {
	if i, ok := c.findApp(name); ok {
		return c.Apps[i]
	}
	return telemetry.AppUsageRecord{}
}

func TestIngestAggregatesAcrossAPs(t *testing.T) {
	s := NewStore()
	// The same client roams across two APs; usage must merge by MAC
	// (Section 2.3).
	s.Ingest(usageReport("AP-1", 1, clientA, "Netflix", 100, 1000))
	s.Ingest(usageReport("AP-2", 1, clientA, "Netflix", 50, 500))
	if s.NumClients() != 1 {
		t.Fatalf("clients = %d, want 1 (roaming aggregation)", s.NumClients())
	}
	c := s.Clients()[0]
	u := appOf(c, "Netflix")
	if u.UpBytes != 150 || u.DownBytes != 1500 || u.Flows != 2 {
		t.Errorf("merged usage = %+v", u)
	}
	if len(c.APs) != 2 {
		t.Errorf("AP count = %d", len(c.APs))
	}
	if c.Total() != 1650 {
		t.Errorf("Total = %d", c.Total())
	}
}

func TestClientOSInference(t *testing.T) {
	s := NewStore()
	fp, _ := apps.DHCPFingerprintFor(apps.OSiOS)
	r := &telemetry.Report{
		Serial: "AP-1", SeqNo: 1,
		Clients: []telemetry.ClientRecord{{
			MAC:              clientA,
			DHCPFingerprints: [][]byte{fp},
			UserAgents:       []string{apps.UserAgentFor(apps.OSiOS)},
		}},
	}
	s.Ingest(r)
	if got := s.Clients()[0].OS(); got != apps.OSiOS {
		t.Errorf("OS = %v", got)
	}
}

func TestLinkSeriesAccumulation(t *testing.T) {
	s := NewStore()
	for i := uint64(1); i <= 3; i++ {
		s.Ingest(&telemetry.Report{
			Serial: "AP-1", SeqNo: i,
			LinkWindows: []telemetry.LinkWindow{
				{Peer: peerB, Band: dot11.Band24, Sent: 20, Delivered: uint32(10 + i)},
			},
		})
	}
	links := s.Links()
	if len(links) != 1 {
		t.Fatalf("links = %d", len(links))
	}
	l := links[0]
	if len(l.Sent) != 3 {
		t.Fatalf("windows = %d", len(l.Sent))
	}
	if got := l.MeanDelivery(); got != 36.0/60.0 {
		t.Errorf("mean delivery = %v", got)
	}
	if l.Deliver[0] != 11 || l.Deliver[2] != 13 {
		t.Errorf("delivered = %v", l.Deliver)
	}
}

func TestRadioAndScanSeries(t *testing.T) {
	s := NewStore()
	s.Ingest(&telemetry.Report{
		Serial: "AP-9", SeqNo: 1, Timestamp: 300,
		Radios: []telemetry.RadioStats{
			{Band: dot11.Band24, Channel: 6, CycleUS: 1000000, RxClearUS: 250000, Rx11US: 200000, TxUS: 5000},
			{Band: dot11.Band24, Channel: 6, CycleUS: 0}, // ignored
		},
		ScanSamples: []telemetry.ScanSample{
			{Band: dot11.Band5, Channel: 36, BusyPermille: 50, DecodablePermille: 45},
		},
	})
	rs := s.RadioSeries("AP-9")
	if len(rs) != 1 {
		t.Fatalf("radio samples = %d", len(rs))
	}
	if rs[0].Busy != 0.25 || rs[0].Decodable != 0.2 {
		t.Errorf("sample = %+v", rs[0])
	}
	snap := s.capture()
	if sc := snap.Scans["AP-9"]; len(sc) != 1 || sc[0].Busy != 0.05 {
		t.Errorf("scan = %+v", sc)
	}
	if got := s.RadioSerials(); len(got) != 1 || got[0] != "AP-9" {
		t.Errorf("serials = %v", got)
	}
	if len(snap.Scans) != 1 {
		t.Errorf("scan serials = %v", sortedKeys(snap.Scans))
	}
}

func TestNeighborDeduplication(t *testing.T) {
	s := NewStore()
	n := telemetry.NeighborRecord{
		BSSID: peerB, SSID: "corp", Band: dot11.Band24, Channel: 1, RSSIdB: 20,
	}
	s.Ingest(&telemetry.Report{Serial: "AP-1", SeqNo: 1, Neighbors: []telemetry.NeighborRecord{n}})
	n.RSSIdB = 25 // later observation updates in place
	s.Ingest(&telemetry.Report{Serial: "AP-1", SeqNo: 2, Neighbors: []telemetry.NeighborRecord{n}})
	got := s.capture().Neighbors["AP-1"]
	if len(got) != 1 {
		t.Fatalf("neighbors = %d", len(got))
	}
	if got[peerB].RSSIdB != 25 {
		t.Errorf("neighbor not updated: %+v", got[peerB])
	}
	if len(s.NeighborSerials()) != 1 {
		t.Error("neighbor serials wrong")
	}
}

func TestStoreConcurrentIngest(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				mac := dot11.MAC{byte(g), 0, 0, 0, 0, 1}
				s.Ingest(usageReport("AP-"+string(rune('A'+g)), uint64(i), mac, "Facebook", 1, 10))
			}
		}(g)
	}
	wg.Wait()
	if s.NumClients() != 8 {
		t.Errorf("clients = %d", s.NumClients())
	}
	for _, c := range s.Clients() {
		if appOf(c, "Facebook").DownBytes != 1000 {
			t.Errorf("client %v bytes = %d", c.MAC, appOf(c, "Facebook").DownBytes)
		}
	}
}

func BenchmarkIngest(b *testing.B) {
	s := NewStore()
	r := usageReport("AP-1", 0, clientA, "Netflix", 100, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ingest(r)
	}
}
