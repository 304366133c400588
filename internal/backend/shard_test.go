package backend

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// fullReport builds a report exercising every store section, with
// deterministic contents derived from (serial index, seq).
func fullReport(n int, seq uint64) *telemetry.Report {
	serial := fmt.Sprintf("AP-%04d", n)
	mac := dot11.MAC{0xac, 0xbc, 0x32, byte(n >> 8), byte(n), 1}
	return &telemetry.Report{
		Serial:    serial,
		Timestamp: seq * 300,
		SeqNo:     seq,
		Radios: []telemetry.RadioStats{
			{Band: dot11.Band24, Channel: 6, CycleUS: 1000, RxClearUS: 250, Rx11US: 100, TxUS: 50},
		},
		Clients: []telemetry.ClientRecord{{
			MAC: mac, Band: dot11.Band24, RSSIdB: int32(10 + n%40),
			UserAgents: []string{fmt.Sprintf("UA-%d", n)},
			Apps:       []telemetry.AppUsageRecord{{App: "Netflix", UpBytes: 10, DownBytes: 100, Flows: 1}},
		}},
		Neighbors: []telemetry.NeighborRecord{
			{BSSID: dot11.BSSID{0, 0x18, 0x0a, 0, byte(n), 9}, SSID: "nbr", Band: dot11.Band24, Channel: 1},
		},
		LinkWindows: []telemetry.LinkWindow{
			{Peer: dot11.MAC{0, 0x18, 0x0a, 0, byte(n), 8}, Band: dot11.Band5, Sent: 20, Delivered: uint32(seq)},
		},
		ScanSamples: []telemetry.ScanSample{
			{Band: dot11.Band5, Channel: 36, BusyPermille: 120, DecodablePermille: 80},
		},
	}
}

// TestClientsSorted pins the explicit sort of Clients(): ascending MAC,
// regardless of ingest order.
func TestClientsSorted(t *testing.T) {
	s := NewStore()
	// Ingest in descending MAC order so map order can't accidentally look
	// sorted.
	for n := 63; n >= 0; n-- {
		s.Ingest(fullReport(n, 1))
	}
	clients := s.Clients()
	if !sort.SliceIsSorted(clients, func(i, j int) bool {
		return clients[i].MAC.Uint64() < clients[j].MAC.Uint64()
	}) {
		t.Error("Clients() not sorted by MAC")
	}
	if len(clients) != 64 {
		t.Errorf("clients = %d, want 64", len(clients))
	}
}

// TestConcurrentIngestManySerials hammers the store from many
// goroutines across many serials and MACs; run under -race this is the
// locking's safety proof, and the totals prove no lost updates.
func TestConcurrentIngestManySerials(t *testing.T) {
	s := NewStore()
	const workers = 16
	const perWorker = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				s.Ingest(fullReport(n, 1))
				s.Ingest(fullReport(n, 2))
				s.Ingest(fullReport(n, 2)) // dupe
			}
		}(w)
	}
	wg.Wait()
	ing, dup := s.Stats()
	if ing != workers*perWorker*2 || dup != workers*perWorker {
		t.Errorf("ingests/dupes = %d/%d, want %d/%d", ing, dup, workers*perWorker*2, workers*perWorker)
	}
	if s.NumClients() != workers*perWorker {
		t.Errorf("clients = %d, want %d", s.NumClients(), workers*perWorker)
	}
	for _, c := range s.Clients() {
		if c.Total() != 220 { // two accepted reports x 110 bytes
			t.Fatalf("client %v total = %d, want 220", c.MAC, c.Total())
		}
	}
}

// TestConcurrentSaveLoadIngest: Save and Load must be safe while
// ingest workers are running — merakid snapshots (the "save" query
// command and the shutdown snapshot) while serve goroutines are still
// calling Ingest. Under -race this pins that Save captures under the
// store lock and Load swaps the maps in under it too.
func TestConcurrentSaveLoadIngest(t *testing.T) {
	s := NewStore()
	for n := 0; n < 32; n++ {
		s.Ingest(fullReport(n, 1))
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	initial := buf.Bytes()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint64(2); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				for n := 0; n < 32; n++ {
					s.Ingest(fullReport(w*64+n, seq))
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := s.Save(io.Discard); err != nil {
			t.Errorf("save: %v", err)
		}
		if err := s.Load(bytes.NewReader(initial)); err != nil {
			t.Errorf("load: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	// The snapshot taken before the churn must still round-trip cleanly.
	s2 := NewStore()
	if err := s2.Load(bytes.NewReader(initial)); err != nil {
		t.Fatal(err)
	}
	if s2.NumClients() != 32 {
		t.Errorf("restored clients = %d, want 32", s2.NumClients())
	}
}

// TestLoadIsAtomic: a reader racing Load sees the store wholly before
// or wholly after it, never half-installed.
func TestLoadIsAtomic(t *testing.T) {
	snapshotOf := func(clients int) []byte {
		s := NewStore()
		for n := 0; n < clients; n++ {
			s.Ingest(fullReport(n, 1))
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	small, large := snapshotOf(64), snapshotOf(200)
	s := NewStore()
	if err := s.Load(bytes.NewReader(small)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	loaded := make(chan error, 1)
	go func() {
		defer close(loaded)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Load(bytes.NewReader([][]byte{large, small}[i%2])); err != nil {
				loaded <- err
				return
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		if n := s.NumClients(); n != 64 && n != 200 {
			close(stop)
			<-loaded
			t.Fatalf("read %d: NumClients = %d during Load, want 64 or 200", i, n)
		}
	}
	close(stop)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
}
