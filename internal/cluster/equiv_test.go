package cluster

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/dot11"
	"wlanscale/internal/rng"
	"wlanscale/internal/telemetry"
)

// apStream is one AP's deterministic report stream, tagged with the
// network it belongs to — the unit the shard map routes.
type apStream struct {
	NetID   uint64
	Serial  string
	Reports []*telemetry.Report
}

// clusterReports builds the seed's fleet: `networks` networks of two
// APs each, eight reports per AP, with seed-varied RSSI, airtime, and
// app counters. Client MACs embed the network ID so networks own
// disjoint client populations, mirroring how synth allocates serial
// blocks — the property that makes shard merges collision-free.
func clusterReports(seed uint64, networks int) []apStream {
	src := rng.New(seed).Split("cluster-equiv")
	var out []apStream
	for n := 0; n < networks; n++ {
		netID := uint64(100 + n)
		for ap := 0; ap < 2; ap++ {
			st := apStream{
				NetID:  netID,
				Serial: fmt.Sprintf("Q2CL-%03d-%d", netID, ap),
			}
			for seq := uint64(1); seq <= 8; seq++ {
				st.Reports = append(st.Reports, clusterReport(netID, ap, seq, src))
			}
			out = append(out, st)
		}
	}
	return out
}

// clusterReport is one AP report in the equivalence fleet.
func clusterReport(netID uint64, ap int, seq uint64, src *rng.Source) *telemetry.Report {
	r := &telemetry.Report{
		Serial:    fmt.Sprintf("Q2CL-%03d-%d", netID, ap),
		Timestamp: seq*300 + src.Uint64()%120,
		SeqNo:     seq,
		Radios: []telemetry.RadioStats{
			{Band: dot11.Band24, Channel: 6, WidthMHz: 20, CycleUS: 300e6,
				RxClearUS: 70e6 + src.Uint64()%1e7, Rx11US: 35e6, TxUS: 18e6},
			{Band: dot11.Band5, Channel: 36 + 4*ap, WidthMHz: 40, CycleUS: 300e6,
				RxClearUS: 25e6 + src.Uint64()%1e7, Rx11US: 12e6, TxUS: 8e6},
		},
	}
	for c := 0; c < 5; c++ {
		cl := telemetry.ClientRecord{
			MAC:    dot11.MAC{0xf0, byte(netID >> 8), byte(netID), byte(ap), byte(c), 0x01},
			Band:   dot11.Band24,
			RSSIdB: int32(10 + src.IntN(40)),
			Caps:   dot11.Capabilities{G: true, N: true, FiveGHz: c%2 == 0, Streams: 1 + c%2},
			UserAgents: []string{
				fmt.Sprintf("AppClient/%d.0", c%3),
			},
			DHCPFingerprints: [][]byte{{0x01, 0x03, 0x06, byte(c % 3)}},
		}
		for a, app := range []string{"Netflix", "YouTube", "HTTP"} {
			cl.Apps = append(cl.Apps, telemetry.AppUsageRecord{
				App:       app,
				UpBytes:   1e3 + src.Uint64()%1e4,
				DownBytes: 1e5 + src.Uint64()%1e6,
				Flows:     uint32(1 + a),
			})
		}
		r.Clients = append(r.Clients, cl)
	}
	for nb := 0; nb < 3; nb++ {
		r.Neighbors = append(r.Neighbors, telemetry.NeighborRecord{
			BSSID:   dot11.BSSID{0, 0x18, byte(netID), byte(ap), byte(nb), 9},
			SSID:    fmt.Sprintf("neighbor-%d", nb),
			Band:    dot11.Band24,
			Channel: 1 + 5*nb,
			RSSIdB:  -int32(35 + src.IntN(50)),
			Vendor:  "Cisco",
		})
	}
	r.LinkWindows = append(r.LinkWindows, telemetry.LinkWindow{
		Peer: dot11.MAC{0, 0x18, byte(netID), byte(ap), 0, 8}, Band: dot11.Band5,
		Sent: 200 + uint32(seq), Delivered: 190 + uint32(seq),
	})
	for s := 0; s < 2; s++ {
		r.ScanSamples = append(r.ScanSamples, telemetry.ScanSample{
			Band: dot11.Band5, Channel: 36 + 4*s,
			BusyPermille: 100 + uint32(src.IntN(200)), DecodablePermille: 80,
		})
	}
	if seq == 3 {
		r.Crashes = append(r.Crashes, telemetry.CrashRecord{
			Timestamp: r.Timestamp, Kind: 2, Firmware: "wlc-7.4",
			PC: 0x4000_0000 + netID, FreeKB: 512, NeighborCount: 3,
		})
	}
	return r
}

// shardStores ingests the streams directly into n per-shard stores,
// routed by the shard map — the cheap way router tests get populated,
// correctly partitioned shards without a harvest.
func shardStores(n int, streams []apStream) []*backend.Store {
	m := NewMap(n)
	stores := make([]*backend.Store, n)
	for i := range stores {
		stores[i] = backend.NewStore()
	}
	for _, st := range streams {
		s := stores[m.Shard(st.NetID)]
		for _, r := range st.Reports {
			s.Ingest(r)
		}
	}
	return stores
}

// harvestInto runs one AP's stream through the real agent/poller
// harvest over net.Pipe at the given wire version, ingesting into s —
// so the equivalence proof covers the wire codec, not just Ingest.
func harvestInto(t *testing.T, s *backend.Store, wire byte, st apStream) {
	t.Helper()
	key := make([]byte, 32)
	agent := telemetry.NewAgent(st.Serial, key)
	agent.Wire = wire
	for _, r := range st.Reports {
		agent.Enqueue(r)
	}
	c1, c2 := net.Pipe()
	go agent.ServeConn(c1)
	p, err := telemetry.AcceptPoller(c2, key)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer p.Close()
	if got := p.NegotiateWire(wire); got != wire {
		t.Fatalf("negotiated wire %d, want %d", got, wire)
	}
	p.BeforeAck = func(rs []*telemetry.Report, _ [][]byte) error {
		for _, r := range rs {
			s.Ingest(r)
		}
		return nil
	}
	for got := 0; got < len(st.Reports); {
		rs, err := p.Poll(5)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if len(rs) == 0 {
			t.Fatalf("harvest stalled at %d/%d", got, len(st.Reports))
		}
		got += len(rs)
	}
}

// TestClusterDigestEquivalence is the acceptance proof for sharding:
// over ten seeds and both wire versions, a 4-shard cluster — every AP
// harvested into the shard its network hashes to, then merged by the
// router's scatter-gather — lands on a digest byte-identical to a
// single daemon that harvested the whole fleet. Sharding may change
// where reports live, never what the cluster as a whole holds.
func TestClusterDigestEquivalence(t *testing.T) {
	const shards = 4
	for seed := uint64(1); seed <= 10; seed++ {
		for _, wire := range []byte{telemetry.WireV1, telemetry.WireV2} {
			streams := clusterReports(seed, 6)

			control := backend.NewStore()
			for _, st := range streams {
				harvestInto(t, control, wire, st)
			}

			m := NewMap(shards)
			stores := make([]*backend.Store, shards)
			for i := range stores {
				stores[i] = backend.NewStore()
			}
			for _, st := range streams {
				harvestInto(t, stores[m.Shard(st.NetID)], wire, st)
			}

			r, _ := serveShards(t, stores)
			r.Timeout = 10 * time.Second
			dig, err := r.MergedDigest()
			if err != nil {
				t.Fatalf("seed %d wire %d: merged digest: %v", seed, wire, err)
			}
			if dig.Degraded || len(dig.Down) != 0 {
				t.Fatalf("seed %d wire %d: healthy cluster degraded: %+v", seed, wire, dig)
			}
			if want := control.Digest(); dig.Digest != want {
				t.Errorf("seed %d wire %d: cluster digest %s != single-daemon digest %s",
					seed, wire, dig.Digest, want)
			}
		}
	}
}

// TestMergedDigestFoldsSharedPartitions: a partition two shards list —
// network 100's reports split between them, as mid-cutover, and a serial
// no network parses reporting to both — is fetched from each shard and
// folded in shard order, so the merged digest still equals that of one
// store fed shard 0's reports and then shard 1's.
func TestMergedDigestFoldsSharedPartitions(t *testing.T) {
	src := rng.New(9).Split("shared-partitions")
	var fed [2][]*telemetry.Report
	for i, st := range clusterReports(9, 4) {
		for j, r := range st.Reports {
			shard := i / 2 % 2
			if st.NetID == 100 {
				shard = j * 2 / len(st.Reports)
			}
			fed[shard] = append(fed[shard], r)
		}
	}
	for seq := uint64(1); seq <= 8; seq++ {
		r := clusterReport(100, 0, seq, src)
		r.Serial = "LOOSE-AP"
		fed[(seq-1)/4] = append(fed[(seq-1)/4], r)
	}
	control := backend.NewStore()
	stores := []*backend.Store{backend.NewStore(), backend.NewStore()}
	for shard, reports := range fed {
		for _, r := range reports {
			stores[shard].Ingest(r)
			control.Ingest(r)
		}
	}
	r, _ := serveShards(t, stores)
	for _, rep := range r.Fanout("digests") {
		held := map[string]bool{}
		for _, ln := range rep.Lines {
			key, _, _ := strings.Cut(ln, " ")
			held[key] = true
		}
		if !held["100"] || !held[backend.UnparsedPartition] {
			t.Fatalf("shard %d does not hold both shared partitions: %v", rep.Shard, rep.Lines)
		}
	}
	dig, err := r.MergedDigest()
	if err != nil || dig.Degraded {
		t.Fatalf("merged digest: %+v, %v", dig, err)
	}
	if want := control.Digest(); dig.Digest != want {
		t.Fatalf("merged digest %s, one store fed the same reports %s", dig.Digest, want)
	}
}
