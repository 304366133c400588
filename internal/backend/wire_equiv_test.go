package backend

import (
	"net"
	"testing"

	"wlanscale/internal/rng"
	"wlanscale/internal/telemetry"
)

// seedReports builds the deterministic report stream one equivalence
// arm harvests: four APs, ten reports each, with seed-varied counters,
// RSSI, and neighbor lists layered over the steady-state benchReport
// shape. Every arm for a given seed rebuilds the identical stream, so
// any digest divergence is the wire format's fault, not the input's.
func seedReports(seed uint64) []*telemetry.Report {
	src := rng.New(seed).Split("wire-equiv")
	var out []*telemetry.Report
	for ap := 0; ap < 4; ap++ {
		for seq := uint64(1); seq <= 10; seq++ {
			r := benchReport(ap, seq)
			r.Timestamp += src.Uint64() % 250
			for c := range r.Clients {
				r.Clients[c].RSSIdB = int32(5 + src.IntN(40))
				for a := range r.Clients[c].Apps {
					r.Clients[c].Apps[a].DownBytes += src.Uint64() % 1e6
					r.Clients[c].Apps[a].UpBytes += src.Uint64() % 1e4
				}
			}
			r.Neighbors = r.Neighbors[:1+src.IntN(len(r.Neighbors))]
			for n := range r.Neighbors {
				r.Neighbors[n].RSSIdB = -int32(30 + src.IntN(60))
			}
			out = append(out, r)
		}
	}
	return out
}

// harvestDigest runs one arm: a fresh agent with the seed's report
// stream, polled to empty over net.Pipe into a fresh store, returning
// the store digest. agentWire is what the agent announces; pollerWire
// what the backend asks NegotiateWire for.
func harvestDigest(t *testing.T, agentWire, pollerWire byte, reports []*telemetry.Report) (string, byte) {
	t.Helper()
	key := make([]byte, 32)
	agent := telemetry.NewAgent("Q2EQ-0001", key)
	agent.Wire = agentWire
	for _, r := range reports {
		agent.Enqueue(r)
	}

	c1, c2 := net.Pipe()
	go agent.ServeConn(c1)
	p, err := telemetry.AcceptPoller(c2, key)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer p.Close()
	wire := p.NegotiateWire(pollerWire)
	s := NewStore()
	p.BeforeAck = func(rs []*telemetry.Report, _ [][]byte) error {
		for _, r := range rs {
			s.Ingest(r)
		}
		return nil
	}
	for got := 0; got < len(reports); {
		rs, err := p.Poll(7)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if len(rs) == 0 {
			t.Fatalf("harvest stalled at %d/%d reports", got, len(reports))
		}
		got += len(rs)
	}
	if ing, _ := s.Stats(); ing != len(reports) {
		t.Fatalf("ingested %d reports, want %d", ing, len(reports))
	}
	return s.Digest(), wire
}

// TestBacklogHarvestThroughBeforeAckFrame drains a v2 backlog over
// several polls into a durable store through BeforeAckFrame, the way
// merakid's drain mode does: every poll that leaves the device
// backlogged hands its decode arena to the next, which overwrites the
// reports the store just ingested. The live store and its WAL replay
// must both land on the control digest.
func TestBacklogHarvestThroughBeforeAckFrame(t *testing.T) {
	reports := seedReports(3)
	key := make([]byte, 32)
	agent := telemetry.NewAgent("Q2EQ-0002", key)
	agent.Wire = telemetry.WireV2
	for _, r := range reports {
		agent.Enqueue(r)
	}
	c1, c2 := net.Pipe()
	go agent.ServeConn(c1)
	p, err := telemetry.AcceptPoller(c2, key)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer p.Close()
	if w := p.NegotiateWire(telemetry.WireV2); w != telemetry.WireV2 {
		t.Fatalf("negotiated wire %d, want v2", w)
	}
	dir := t.TempDir()
	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	p.BeforeAckFrame = d.IngestBatchFrame

	backlogged := 0
	for got := 0; got < len(reports); {
		rs, err := p.Poll(7)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if len(rs) == 0 {
			t.Fatalf("harvest stalled at %d/%d reports", got, len(reports))
		}
		got += len(rs)
		if p.QueueDepth() > 0 {
			backlogged++
		}
	}
	if backlogged < 2 {
		t.Fatalf("only %d polls left the device backlogged; the arena was never reused", backlogged)
	}
	want := volatileDigest(reports) // as stamped by Enqueue
	if got := d.Digest(); got != want {
		t.Fatalf("drained store digest != control\n got %s\nwant %s", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _ := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if got := d2.Digest(); got != want {
		t.Fatalf("replayed digest != control\n got %s\nwant %s", got, want)
	}
}

// TestWireDigestEquivalence is the acceptance proof for wire v2: over
// ten seeds, a pure v1 harvest, a pure v2 harvest, and a mixed fleet
// (a v2 agent polled by a backend that negotiates v1) must land the
// backend store on byte-identical digests. The wire format may change
// how reports travel, never what arrives.
func TestWireDigestEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		v1, w1 := harvestDigest(t, telemetry.WireV1, telemetry.WireV1, seedReports(seed))
		v2, w2 := harvestDigest(t, telemetry.WireV2, telemetry.WireV2, seedReports(seed))
		mixed, wm := harvestDigest(t, telemetry.WireV2, telemetry.WireV1, seedReports(seed))
		if w1 != telemetry.WireV1 || w2 != telemetry.WireV2 || wm != telemetry.WireV1 {
			t.Fatalf("seed %d: negotiated wires v1=%d v2=%d mixed=%d, want 1/2/1", seed, w1, w2, wm)
		}
		if v1 == "" {
			t.Fatalf("seed %d: empty digest", seed)
		}
		if v2 != v1 {
			t.Errorf("seed %d: v2 digest %s != v1 digest %s", seed, v2, v1)
		}
		if mixed != v1 {
			t.Errorf("seed %d: mixed-fleet digest %s != v1 digest %s", seed, mixed, v1)
		}
	}
}

// TestWireDigestEquivalenceOffline pins the same property on the
// offline pipeline knob: core.Config.WireVersion round-trips every
// simulated report through the selected codec, and the resulting study
// store must not care which one (see internal/core's usage tests for
// the table-level version of this).
func TestWireDigestEquivalenceOffline(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		var digests [2]string
		for i, wire := range []byte{telemetry.WireV1, telemetry.WireV2} {
			reports := seedReports(seed)
			s := NewStore()
			if wire >= telemetry.WireV2 {
				be := telemetry.NewBatchEncoder(0)
				for _, r := range reports {
					if !be.Add(r) {
						t.Fatalf("unbounded encoder declined report")
					}
				}
				f, err := telemetry.DecodeBatchFrame(be.Finish(0, 0, nil))
				if err != nil {
					t.Fatalf("decode batch: %v", err)
				}
				for _, r := range f.Reports {
					s.Ingest(r)
				}
			} else {
				for _, r := range reports {
					rr, err := telemetry.UnmarshalReport(r.Marshal())
					if err != nil {
						t.Fatalf("unmarshal: %v", err)
					}
					s.Ingest(rr)
				}
			}
			digests[i] = s.Digest()
		}
		if digests[0] != digests[1] {
			t.Errorf("seed %d: offline v1 digest %s != v2 digest %s", seed, digests[0], digests[1])
		}
	}
}
