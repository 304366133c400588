package backend

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// runHarvestArm drives one poll-loop benchmark arm: an in-process
// agent/poller pair over net.Pipe, batch-sized polls, with beforeAck
// standing where cmd/merakid hangs its ingest (and, durable, its WAL).
// wire selects the harvest protocol: telemetry.WireV1 per-report frames
// or telemetry.WireV2 delta-coded batches.
func runHarvestArm(b *testing.B, wire byte, beforeAck func([]*telemetry.Report, [][]byte) error, beforeAckFrame func([]*telemetry.Report, []byte) error) {
	const batch = 16
	key := make([]byte, 32)
	c1, c2 := net.Pipe()
	agent := telemetry.NewAgent("Q2XX-BENCH", key)
	agent.Wire = wire
	go agent.ServeConn(c1)
	p, err := telemetry.AcceptPoller(c2, key)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.NegotiateWire(wire)
	p.BeforeAck = beforeAck
	p.BeforeAckFrame = beforeAckFrame
	reports := make([]*telemetry.Report, batch)
	for j := range reports {
		reports[j] = benchReport(0, uint64(j+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reports {
			rr := *r
			agent.Enqueue(&rr)
		}
		got, err := p.Poll(batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != batch {
			b.Fatalf("poll returned %d reports, want %d", len(got), batch)
		}
	}
}

// BenchmarkHarvestPipeline measures the WAL where the daemon pays for
// it: one op is a full poll round — agent-side marshal and encrypt,
// frame transport, daemon-side decrypt, unmarshal, ingest, and ack —
// exactly cmd/merakid's serveDevice loop over an in-process pipe. The
// volatile arm ingests into a bare store from BeforeAck; the wal arms
// run DurableStore.IngestBatch there, as merakid does with -wal-dir.
// BenchmarkDurableIngest isolates the store+WAL cost by itself; this
// benchmark answers what fraction of a real harvest the log adds.
// Each arm runs under both wire versions, so the suite answers two
// questions at once: what the WAL adds to a harvest, and what wire v2's
// batch coalescing buys back (fewer bytes, one IngestBatch per frame).
func BenchmarkHarvestPipeline(b *testing.B) {
	for _, w := range []struct {
		name string
		wire byte
	}{{"wire-v1", telemetry.WireV1}, {"wire-v2", telemetry.WireV2}} {
		b.Run(w.name, func(b *testing.B) {
			b.Run("volatile", func(b *testing.B) {
				s := NewStore()
				runHarvestArm(b, w.wire, func(reports []*telemetry.Report, _ [][]byte) error {
					for _, r := range reports {
						s.Ingest(r)
					}
					return nil
				}, nil)
			})

			for _, pol := range []wal.Policy{wal.PolicyOff, wal.PolicyInterval, wal.PolicyAlways} {
				b.Run("wal-"+pol.String(), func(b *testing.B) {
					d, _, err := OpenDurable(b.TempDir(), DurableOptions{WAL: wal.Options{
						Policy:   pol,
						Interval: 100 * time.Millisecond,
					}})
					if err != nil {
						b.Fatal(err)
					}
					defer d.Close()
					runHarvestArm(b, w.wire, d.IngestBatch, d.IngestBatchFrame)
				})
			}
		})
	}
}

// benchReport builds a paper-shaped steady-state report: two radios, a
// dozen associated clients with user agents, DHCP fingerprints and app
// counters, a scanned neighborhood, mesh links, and spectrum samples —
// the density Section 2's per-AP uploads actually carry. Reports for
// the same AP repeat their strings and drift their counters, which is
// exactly the redundancy wire v2's dictionary and deltas exist to
// remove.
func benchReport(ap int, seq uint64) *telemetry.Report {
	r := &telemetry.Report{
		Serial:    fmt.Sprintf("Q2XX-%04d", ap),
		Timestamp: seq * 300,
		SeqNo:     seq,
		Radios: []telemetry.RadioStats{
			{Band: dot11.Band24, Channel: 6, WidthMHz: 20, CycleUS: 300e6, RxClearUS: 80e6 + seq*1e4, Rx11US: 40e6, TxUS: 20e6},
			{Band: dot11.Band5, Channel: 36, WidthMHz: 40, CycleUS: 300e6, RxClearUS: 30e6 + seq*1e4, Rx11US: 15e6, TxUS: 9e6},
		},
	}
	for c := 0; c < 12; c++ {
		cl := telemetry.ClientRecord{
			MAC:    dot11.MAC{0xf0, 0x18, byte(ap), byte(c), 0x01, 0x02},
			Band:   dot11.Band24,
			RSSIdB: int32(15 + (ap+c)%35),
			Caps:   dot11.Capabilities{G: true, N: true, FiveGHz: c%2 == 0, Streams: 1 + c%2},
			UserAgents: []string{
				"Mozilla/5.0 (iPhone; CPU iPhone OS 8_1 like Mac OS X)",
				fmt.Sprintf("AppClient/%d.0", c%3),
			},
			DHCPFingerprints: [][]byte{{0x01, 0x03, 0x06, 0x0f, byte(c % 3)}},
		}
		for a := 0; a < 4; a++ {
			cl.Apps = append(cl.Apps, telemetry.AppUsageRecord{
				App:     []string{"Netflix", "YouTube", "BitTorrent", "HTTP"}[a],
				UpBytes: 1e4 + seq*100, DownBytes: 2e6 + seq*5000, Flows: 3,
			})
		}
		r.Clients = append(r.Clients, cl)
	}
	for nb := 0; nb < 8; nb++ {
		r.Neighbors = append(r.Neighbors, telemetry.NeighborRecord{
			BSSID: dot11.BSSID{0, 0x18, 0x0a, byte(ap), byte(nb), 9}, SSID: fmt.Sprintf("neighbor-%d", nb%4),
			Band: dot11.Band24, Channel: 1 + 5*(nb%3), RSSIdB: -int32(40 + nb), Vendor: "Cisco",
		})
	}
	for l := 0; l < 2; l++ {
		r.LinkWindows = append(r.LinkWindows, telemetry.LinkWindow{
			Peer: dot11.MAC{0, 0x18, 0x0a, byte(ap), byte(l), 8}, Band: dot11.Band5,
			Sent: 200 + uint32(seq), Delivered: 190 + uint32(seq),
		})
	}
	for s := 0; s < 4; s++ {
		r.ScanSamples = append(r.ScanSamples, telemetry.ScanSample{
			Band: dot11.Band5, Channel: 36 + 4*s, BusyPermille: 120 + uint32(seq%50), DecodablePermille: 80,
		})
	}
	return r
}

// BenchmarkWireEncode isolates the codec cost and reports bytes/report
// for each wire version on a steady-state batch — the number
// EXPERIMENTS.md's wire table quotes and scripts/benchgate regresses.
func BenchmarkWireEncode(b *testing.B) {
	const batch = 16
	reports := make([]*telemetry.Report, batch)
	for i := range reports {
		reports[i] = benchReport(i%4, uint64(i+1))
	}
	b.Run("v1", func(b *testing.B) {
		var bytesOut int
		for i := 0; i < b.N; i++ {
			bytesOut = 0
			for _, r := range reports {
				bytesOut += len(r.Marshal())
			}
		}
		b.ReportMetric(float64(bytesOut)/batch, "bytes/report")
	})
	b.Run("v2", func(b *testing.B) {
		var bytesOut int
		for i := 0; i < b.N; i++ {
			be := telemetry.NewBatchEncoder(0)
			for _, r := range reports {
				be.Add(r)
			}
			bytesOut = len(be.Finish(0, 0, nil))
		}
		b.ReportMetric(float64(bytesOut)/batch, "bytes/report")
	})
}

// decodeBatchPayload is the v2 payload BenchmarkDecodeBatch and
// TestDecodeBatchAllocs decode: 64 benchReports from 16 APs, four
// consecutive reports per AP, one poll's worth of a harvest drain.
func decodeBatchPayload() []byte {
	be := telemetry.NewBatchEncoder(0)
	for i := 0; i < 64; i++ {
		be.Add(benchReport(i%16, uint64(i/16+1)))
	}
	return be.Finish(0, 0, nil)
}

// BenchmarkDecodeBatch isolates the daemon-side v2 decode — the call
// Poller.Poll and OpenDurable's WAL replay both make per batch frame.
func BenchmarkDecodeBatch(b *testing.B) {
	payload := decodeBatchPayload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := telemetry.DecodeBatchFrame(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBatchReuse is BenchmarkDecodeBatch through one
// BatchDecoder, the way a draining Poller and each WAL replay worker
// decode batch after batch.
func BenchmarkDecodeBatchReuse(b *testing.B) {
	payload := decodeBatchPayload()
	var dec telemetry.BatchDecoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeBatchAllocs pins the decode arena's allocation count: one
// string per dictionary entry and one backing array per record kind,
// not one allocation per field (12,181 per batch before the arena). A
// reused decoder allocates only the batch's strings and fingerprints:
// at most a tenth of a fresh decode's bytes.
func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	payload := decodeBatchPayload()
	const ceiling = 1500
	if got := testing.AllocsPerRun(20, func() { telemetry.DecodeBatchFrame(payload) }); got > ceiling {
		t.Errorf("DecodeBatchFrame allocated %.0f times per 64-report batch, ceiling %d", got, ceiling)
	}

	allocBytes := func(decode func()) uint64 {
		const runs = 20
		// Warm up: a reused decoder grows its slabs at the start of
		// its second decode.
		decode()
		decode()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	var dec telemetry.BatchDecoder
	fresh := allocBytes(func() { telemetry.DecodeBatchFrame(payload) })
	reused := allocBytes(func() { dec.Decode(payload) })
	if reused*10 > fresh {
		t.Errorf("a reused decoder allocated %d B per batch, fresh %d B: want at most a tenth", reused, fresh)
	}
}
