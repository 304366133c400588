package backend

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// networkOfSerialSplit is NetworkOfSerial written with strings.Split,
// the reference its allocation-free form must match exactly.
func networkOfSerialSplit(serial string) (uint64, bool) {
	parts := strings.Split(serial, "-")
	if len(parts) < 3 || parts[1] == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

func TestNetworkOfSerial(t *testing.T) {
	cases := []struct {
		serial string
		id     uint64
		ok     bool
	}{
		{"Q2XX-0005-0002", 5, true},
		{"Q2CL-100-0", 100, true},
		{"A-0-B", 0, true},
		{"A-7-", 7, true},
		{"-7-B", 7, true},
		{"A-7-B-C", 7, true},
		{"A-18446744073709551615-B", 1<<64 - 1, true},
		{"", 0, false},
		{"NODASH", 0, false},
		{"A-B", 0, false},
		{"A-7", 0, false},
		{"A--C", 0, false},
		{"--", 0, false},
		{"A-12x-C", 0, false},
		{"A-+7-C", 0, false},
		{"A-18446744073709551616-B", 0, false},
	}
	for _, c := range cases {
		id, ok := NetworkOfSerial(c.serial)
		if id != c.id || ok != c.ok {
			t.Errorf("NetworkOfSerial(%q) = %d,%v want %d,%v", c.serial, id, ok, c.id, c.ok)
		}
		if rid, rok := networkOfSerialSplit(c.serial); id != rid || ok != rok {
			t.Errorf("NetworkOfSerial(%q) = %d,%v, Split form %d,%v", c.serial, id, ok, rid, rok)
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { NetworkOfSerial("Q2XX-0005-0002") }); n != 0 {
		t.Errorf("NetworkOfSerial allocated %.0f times per parseable serial, want 0", n)
	}
}

// FuzzNetworkOfSerial: for every input the Cut form accepts and
// returns exactly what the Split form does.
func FuzzNetworkOfSerial(f *testing.F) {
	for _, s := range []string{"Q2XX-0005-0002", "A-7-", "A--C", "A-7", "-1-2-3", "x-99999999999999999999-y"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, serial string) {
		id, ok := NetworkOfSerial(serial)
		if rid, rok := networkOfSerialSplit(serial); id != rid || ok != rok {
			t.Fatalf("NetworkOfSerial(%q) = %d,%v, Split form %d,%v", serial, id, ok, rid, rok)
		}
	})
}

func TestMigrationRecordRoundTrip(t *testing.T) {
	payload := []byte("gob-bytes-here")
	rec := encodeMigrationRecord(recAbsorb, "epoch3-2to3.s0d2", []uint64{1, 200, 1 << 40}, payload)
	if !isMigrationRecord(rec) {
		t.Fatal("isMigrationRecord = false")
	}
	m, err := decodeMigrationRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != recAbsorb || m.token != "epoch3-2to3.s0d2" || !reflect.DeepEqual(m.ids, []uint64{1, 200, 1 << 40}) || !bytes.Equal(m.slice, payload) {
		t.Fatalf("round trip = %d %q %v %q", m.kind, m.token, m.ids, m.slice)
	}
	for cut := 1; cut < len(rec)-len(payload); cut++ {
		if _, err := decodeMigrationRecord(rec[:cut]); err == nil && cut < len(rec)-len(payload) {
			// Truncations inside the header must error; truncating the
			// payload region alone is legal (payload length is implicit).
			t.Fatalf("truncated record at %d decoded without error", cut)
		}
	}
	// An ID count the record cannot hold is truncation, whatever its
	// size: it must not reach make (2^60 panics, 2^33 asks 64 GiB).
	for _, count := range []uint64{1 << 60, 1 << 33, 1} {
		rec := binary.AppendUvarint([]byte{recPart, 0}, count)
		if m, err := decodeMigrationRecord(rec); err == nil {
			t.Fatalf("count %d with no IDs decoded to %d IDs", count, len(m.ids))
		}
	}
}

// TestDurableReplaySkipsHugeMigrationCount: a CRC-valid migration
// record whose ID count runs past its end, logged between two ingested
// batches, is one bad record; replay goes on and recovers the control
// digest.
func TestDurableReplaySkipsHugeMigrationCount(t *testing.T) {
	reports := durableReports(40)
	dir := t.TempDir()
	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	if err := d.IngestBatch(reports[:20], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WAL().Append(binary.AppendUvarint([]byte{recPart, 0}, 1<<60)); err != nil {
		t.Fatal(err)
	}
	if err := d.IngestBatch(reports[20:], nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if stats.BadRecords != 1 {
		t.Fatalf("recovery stats = %+v, want the huge-count record counted bad", stats)
	}
	if got, want := d2.Digest(), volatileDigest(reports); got != want {
		t.Fatalf("recovered digest != control\n got %s\nwant %s", got, want)
	}
}

// extractBenchStore holds networks 1..nets, each of 16 APs reporting
// twice with 8 clients of 3 apps and two radios.
func extractBenchStore(tb testing.TB, nets int) *Store {
	tb.Helper()
	s := NewStore()
	for n := 1; n <= nets; n++ {
		for ap := 0; ap < 16; ap++ {
			for seq := uint64(1); seq <= 2; seq++ {
				r := &telemetry.Report{
					Serial: fmt.Sprintf("Q2EX-%04d-%04d", n, ap), SeqNo: seq, Timestamp: 1_400_000_000 + seq*300,
					Radios: []telemetry.RadioStats{
						{Band: dot11.Band24, Channel: 6, CycleUS: 1_000_000, RxClearUS: 200_000, Rx11US: 150_000, TxUS: 20_000},
						{Band: dot11.Band5, Channel: 36, CycleUS: 1_000_000, RxClearUS: 100_000, Rx11US: 80_000, TxUS: 30_000},
					},
				}
				for k := 0; k < 8; k++ {
					r.Clients = append(r.Clients, telemetry.ClientRecord{
						MAC: dot11.MAC{0xac, 0xe0, byte(n >> 8), byte(n), byte(ap), byte(k)}, Band: dot11.Band5, RSSIdB: 30,
						Apps: []telemetry.AppUsageRecord{{App: "dns", UpBytes: seq, Flows: 1}, {App: "http", DownBytes: seq * 9, Flows: 1}, {App: "tls", UpBytes: seq}},
					})
				}
				s.Ingest(r)
			}
		}
	}
	if got := len(s.Networks()); got != nets {
		tb.Fatalf("bench store holds %d networks, want %d", got, nets)
	}
	return s
}

// BenchmarkExtractNetworks moves one network out of a store holding 1
// and 100 of them: what it costs should not depend on the others.
func BenchmarkExtractNetworks(b *testing.B) {
	for _, nets := range []int{1, 100} {
		b.Run(fmt.Sprintf("resident=%d", nets), func(b *testing.B) {
			s, ids := extractBenchStore(b, nets), IDSet([]uint64{1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ExtractNetworks(ids)
			}
		})
	}
}

// TestExtractCostIsPerNetwork: extracting one network allocates at most
// twice as many bytes with 100 networks resident as with only it.
func TestExtractCostIsPerNetwork(t *testing.T) {
	bytesPerExtract := func(s *Store) uint64 {
		const calls = 4
		ids := IDSet([]uint64{1})
		s.ExtractNetworks(ids)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			s.ExtractNetworks(ids)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	one, hundred := bytesPerExtract(extractBenchStore(t, 1)), bytesPerExtract(extractBenchStore(t, 100))
	if hundred > 2*one {
		t.Fatalf("extracting one network allocates %d B with 100 resident, %d B with 1; want at most twice", hundred, one)
	}
}
