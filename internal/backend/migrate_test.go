package backend

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// netReport builds one report for AP ap of network net, touching every
// store section so extraction and deletion are exercised field by
// field. Client MACs embed the network, keeping populations disjoint
// the way real customer networks are.
func netReport(net, ap int, seq uint64) *telemetry.Report {
	serial := fmt.Sprintf("Q2TT-%04d-%04d", net, ap)
	mac := dot11.MAC{0x02, byte(net >> 8), byte(net), 0, byte(ap), byte(seq)}
	return &telemetry.Report{
		Serial:    serial,
		SeqNo:     seq,
		Timestamp: 1000 + seq,
		Radios: []telemetry.RadioStats{{
			Band: dot11.Band24, Channel: 6,
			CycleUS: 1000, RxClearUS: 300, Rx11US: 120, TxUS: 50,
		}},
		LinkWindows: []telemetry.LinkWindow{{
			Peer: dot11.MAC{0x02, 0xee, byte(net), 0, 0, 1}, Band: dot11.Band5,
			Sent: 100, Delivered: 90,
		}},
		ScanSamples: []telemetry.ScanSample{{
			Band: dot11.Band5, Channel: 36, BusyPermille: 120, DecodablePermille: 80,
		}},
		Neighbors: []telemetry.NeighborRecord{{
			BSSID: dot11.BSSID{0x06, 0, byte(net), 0, 0, byte(ap)}, SSID: "neigh",
			Band: dot11.Band24, Channel: 1, RSSIdB: -70,
		}},
		Crashes: []telemetry.CrashRecord{{Timestamp: 900 + seq, Kind: 1, Firmware: "fw"}},
		Clients: []telemetry.ClientRecord{{
			MAC: mac, Band: dot11.Band24, RSSIdB: -55,
			Apps: []telemetry.AppUsageRecord{{App: "Netflix", UpBytes: seq, DownBytes: seq * 10, Flows: 1}},
		}},
	}
}

// netStore ingests reps reports per AP for each listed network.
func netStore(nets []int, aps int, reps uint64) *Store {
	s := NewStore()
	for _, n := range nets {
		for a := 0; a < aps; a++ {
			for q := uint64(1); q <= reps; q++ {
				s.Ingest(netReport(n, a, q))
			}
		}
	}
	return s
}

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

func TestNetworksListsEveryNetwork(t *testing.T) {
	s := netStore([]int{7, 3, 11}, 2, 2)
	got := s.Networks(NetworkOfSerial)
	if want := []uint64{3, 7, 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Networks = %v, want %v", got, want)
	}
}

// TestExtractDeletePartition pins the core migration invariant: a
// store splits cleanly into a moved slice and a remainder, and merging
// the two back yields the original digest — nothing lost, nothing
// duplicated, no shared memory between slice and source.
func TestExtractDeletePartition(t *testing.T) {
	s := netStore([]int{1, 2, 3, 4}, 2, 3)
	want := s.Digest()
	moved := IDSet([]uint64{2, 4})

	slice := s.ExtractNetworks(moved, NetworkOfSerial)
	if got := slice.Networks(NetworkOfSerial); !reflect.DeepEqual(got, []uint64{2, 4}) {
		t.Fatalf("slice networks = %v", got)
	}
	// Deep copy: mutating the slice must not touch the source.
	sliceDigest := slice.Digest()
	before := s.Digest()
	slice.Ingest(netReport(2, 0, 99))
	if s.Digest() != before {
		t.Fatal("mutating the extracted slice changed the source store")
	}

	rest := s.ExtractNetworks(IDSet([]uint64{1, 3}), NetworkOfSerial)
	nets, entries := s.DeleteNetworks(moved, NetworkOfSerial)
	if nets != 2 || entries == 0 {
		t.Fatalf("DeleteNetworks = %d nets %d entries", nets, entries)
	}
	if got := s.Networks(NetworkOfSerial); !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("post-delete networks = %v", got)
	}
	if s.Digest() != rest.Digest() {
		t.Fatal("post-delete store != extracted remainder")
	}

	// Reassemble: remainder + original slice == original store.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	merged := NewStore()
	if err := merged.MergeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	fresh := netStore([]int{2, 4}, 2, 3)
	if fresh.Digest() != sliceDigest {
		t.Fatal("extracted slice digest != fresh build of the same networks")
	}
	if err := fresh.Save(&sbuf); err != nil {
		t.Fatal(err)
	}
	if err := merged.MergeSnapshot(&sbuf); err != nil {
		t.Fatal(err)
	}
	if merged.Digest() != want {
		t.Fatal("remainder + slice digest != original")
	}
}

func TestAbsorbTokenIdempotent(t *testing.T) {
	src := netStore([]int{5}, 2, 2)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	slice := buf.Bytes()

	dst := netStore([]int{9}, 1, 1)
	applied, err := dst.Absorb("tok-1", []uint64{5}, bytes.NewReader(slice), NetworkOfSerial)
	if err != nil || !applied {
		t.Fatalf("first absorb = %v, %v", applied, err)
	}
	want := dst.Digest()
	applied, err = dst.Absorb("tok-1", []uint64{5}, bytes.NewReader(slice), NetworkOfSerial)
	if err != nil || applied {
		t.Fatalf("re-absorb under same token = %v, %v (want no-op)", applied, err)
	}
	if dst.Digest() != want {
		t.Fatal("re-absorb changed the store")
	}

	// A fresh token replaces: stale pre-existing data for the moved
	// networks is deleted first, so absorption converges instead of
	// appending duplicate series.
	dst.Ingest(netReport(5, 0, 99)) // stray stale copy
	applied, err = dst.Absorb("tok-2", []uint64{5}, bytes.NewReader(slice), NetworkOfSerial)
	if err != nil || !applied {
		t.Fatalf("fresh-token absorb = %v, %v", applied, err)
	}
	if dst.Digest() != want {
		t.Fatal("fresh-token absorb did not replace stale data")
	}

	// A slice that does not decode is refused before the moved networks'
	// current data is deleted, so it changes nothing.
	if _, err := dst.Absorb("tok-3", []uint64{5}, bytes.NewReader(slice[:len(slice)/2]), NetworkOfSerial); err == nil || dst.Digest() != want {
		t.Fatalf("truncated slice: err=%v, store changed=%v", err, dst.Digest() != want)
	}
}

func TestPartUnpartAndDrop(t *testing.T) {
	s := netStore([]int{1, 2}, 1, 1)
	s.Part([]uint64{2, 7})
	if !s.IsParted(2) || !s.IsParted(7) || s.IsParted(1) {
		t.Fatal("IsParted wrong after Part")
	}
	if got := s.PartedIDs(); !reflect.DeepEqual(got, []uint64{2, 7}) {
		t.Fatalf("PartedIDs = %v", got)
	}
	s.Unpart([]uint64{7})
	if s.IsParted(7) {
		t.Fatal("Unpart did not clear")
	}
	s.MarkAbsorbed("tok")
	nets, _ := s.Drop("tok", []uint64{2}, NetworkOfSerial)
	if nets != 1 {
		t.Fatalf("Drop removed %d networks", nets)
	}
	if s.HasAbsorbed("tok") {
		t.Fatal("Drop did not clear the token")
	}
	if got := s.Networks(NetworkOfSerial); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("post-drop networks = %v", got)
	}
}

// TestMigrationStateSurvivesSnapshot pins that parted/absorbed state
// rides snapshots (so a restarted shard still refuses parted networks)
// without perturbing the data digest.
func TestMigrationStateSurvivesSnapshot(t *testing.T) {
	s := netStore([]int{1}, 1, 1)
	plain := s.Digest()
	s.Part([]uint64{42})
	s.MarkAbsorbed("tok-x")
	if s.Digest() != plain {
		t.Fatal("migration bookkeeping leaked into the digest")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if !s2.IsParted(42) || !s2.HasAbsorbed("tok-x") {
		t.Fatal("migration bookkeeping lost across save/load")
	}
	if s2.Digest() != plain {
		t.Fatal("digest changed across save/load with bookkeeping")
	}
}

// TestDurableMigrationReplay crashes a destination shard (close
// without checkpoint) at every stage of a migration and requires
// recovery to land exactly where the shard acknowledged: absorbed
// slices stay absorbed, parts stay parted, drops stay gone.
func TestDurableMigrationReplay(t *testing.T) {
	src := netStore([]int{5, 6}, 2, 2)
	var buf bytes.Buffer
	if err := src.ExtractNetworks(IDSet([]uint64{5}), NetworkOfSerial).Save(&buf); err != nil {
		t.Fatal(err)
	}
	slice := buf.Bytes()
	wantSlice := netStore([]int{5}, 2, 2).Digest()

	dir := t.TempDir()
	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	if err := d.PartNetworks([]uint64{5}); err != nil {
		t.Fatal(err)
	}
	applied, err := d.AbsorbSnapshot("tok-d", []uint64{5}, slice)
	if err != nil || !applied {
		t.Fatalf("AbsorbSnapshot = %v, %v", applied, err)
	}
	if d.IsParted(5) {
		t.Fatal("absorb left the network parted on its new home")
	}
	d.Close() // SIGKILL stand-in: no checkpoint, WAL only

	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	if stats.BadRecords != 0 {
		t.Fatalf("recovery: %+v", stats)
	}
	if got := d2.Digest(); got != wantSlice {
		t.Fatalf("recovered digest != slice\n got %s\nwant %s", got, wantSlice)
	}
	if !d2.HasAbsorbed("tok-d") || d2.IsParted(5) {
		t.Fatal("recovered migration bookkeeping wrong")
	}
	// Re-absorbing after recovery stays a no-op.
	if applied, err := d2.AbsorbSnapshot("tok-d", []uint64{5}, slice); err != nil || applied {
		t.Fatalf("post-recovery re-absorb = %v, %v", applied, err)
	}

	// Checkpoint, then drop, then crash again: replay must apply the
	// drop above the checkpoint.
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.DropNetworks("tok-d", []uint64{5}); err != nil {
		t.Fatal(err)
	}
	d2.Close()

	d3, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d3.Close()
	if stats.BadRecords != 0 {
		t.Fatalf("recovery: %+v", stats)
	}
	if got := d3.Networks(NetworkOfSerial); len(got) != 0 {
		t.Fatalf("dropped network resurrected after recovery: %v", got)
	}
	if d3.HasAbsorbed("tok-d") {
		t.Fatal("drop's token clear lost across recovery")
	}
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
