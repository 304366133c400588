// Chaos suite: drives a multi-agent harvest fleet through scripted
// outages, corruption bursts, hard resets, stalls, and AP reboots from
// one faultnet seed, then asserts the backend store converged to
// exactly-once ingestion — every report either ingested once or counted
// in Agent.Dropped(), duplicates absorbed by (serial, seqno) dedup,
// no goroutine left hanging. This is the paper's operating regime:
// devices queue locally through tunnel loss, dual-home across two
// datacenters, and catch up after crash/reboot storms (Sections 2, 6).
package telemetry_test

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"wlanscale/internal/anomaly"
	"wlanscale/internal/backend"
	"wlanscale/internal/dot11"
	"wlanscale/internal/faultnet"
	"wlanscale/internal/telemetry"
)

var chaosKey = bytes.Repeat([]byte{0x42}, 32)

const chaosTimeout = 500 * time.Millisecond

// chaosReport builds a report with exactly one radio sample, so the
// store's per-serial radio series length equals its unique-ingest count
// and any double-count would be visible in the aggregate.
func chaosReport(serial string, i int) *telemetry.Report {
	return &telemetry.Report{
		Serial:    serial,
		Timestamp: uint64(i),
		Radios: []telemetry.RadioStats{{
			Band: dot11.Band24, Channel: 1 + i%11, WidthMHz: 20,
			CycleUS: 1e6, RxClearUS: 100000, Rx11US: 80000, TxUS: 5000,
		}},
	}
}

func chaosAgent(serial string, health *telemetry.HarvestHealth) *telemetry.Agent {
	a := telemetry.NewAgent(serial, chaosKey)
	a.Timeout = chaosTimeout
	a.BackoffBase = 10 * time.Millisecond
	a.BackoffMax = 250 * time.Millisecond
	a.Health = health
	return a
}

// serveBackend runs one datacenter: accept tunnels, poll each device,
// ingest into the shared store. Sessions die on any error (the agent
// reconnects and redelivers); the loop survives every fault.
func serveBackend(wg *sync.WaitGroup, ln net.Listener, store *backend.Store, health *telemetry.HarvestHealth) {
	defer wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := telemetry.AcceptPollerWithTimeout(conn, chaosKey, chaosTimeout)
			if err != nil {
				conn.Close()
				return
			}
			defer p.Close()
			p.Health = health
			for {
				reports, err := p.Poll(32)
				if err != nil {
					return
				}
				for _, r := range reports {
					store.Ingest(r)
				}
				if len(reports) == 0 {
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tsSet returns the set of radio-sample timestamps stored for a serial.
func tsSet(store *backend.Store, serial string) map[uint64]int {
	out := make(map[uint64]int)
	for _, s := range store.RadioSeries(serial) {
		out[s.Timestamp]++
	}
	return out
}

func TestChaosConvergesToExactlyOnce(t *testing.T) {
	store := backend.NewStore()
	health := &telemetry.HarvestHealth{}
	var wg sync.WaitGroup

	// Two datacenters behind one seeded fault plan each. Windows index
	// accepted connections, so every fault sequence replays from the
	// seeds: the primary starts clean, goes through an outage, then a
	// corruption burst, then resets and a stall; the secondary is down
	// at first and corrupts a burst of its own. Both run clean once the
	// windows pass, so the fleet always converges.
	lnP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primary := faultnet.Wrap(lnP, faultnet.Plan{
		Seed:        0xC0FFEE,
		Refuse:      []faultnet.Window{{From: 2, To: 4}},
		Corrupt:     []faultnet.Window{{From: 4, To: 12}},
		CorruptProb: 0.6,
		Reset:       []faultnet.Window{{From: 12, To: 14}},
		Stall:       []faultnet.Window{{From: 14, To: 15}},
		Latency:     100 * time.Microsecond,
	})
	lnS, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	secondary := faultnet.Wrap(lnS, faultnet.Plan{
		Seed:        0xBEEF,
		Refuse:      []faultnet.Window{{From: 0, To: 2}},
		Corrupt:     []faultnet.Window{{From: 2, To: 6}},
		CorruptProb: 0.5,
	})
	addrP, addrS := lnP.Addr().String(), lnS.Addr().String()
	wg.Add(2)
	go serveBackend(&wg, primary, store, health)
	go serveBackend(&wg, secondary, store, health)

	stop := make(chan struct{})
	runAgent := func(a *telemetry.Agent, st <-chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.RunAddrs([]string{addrP, addrS}, st)
		}()
	}

	// AP-0: steady reporter riding out every fault window.
	a0 := chaosAgent("AP-0", health)
	for i := 0; i < 40; i++ {
		a0.Enqueue(chaosReport("AP-0", i))
	}
	runAgent(a0, stop)

	// AP-3: flash-budget overflow before it ever connects — 48 reports
	// into a 16-slot queue. The 32 oldest are the declared losses; the
	// drop count must surface at the backend via the report frames.
	a3 := chaosAgent("AP-3", health)
	a3.QueueLimit = 16
	for i := 0; i < 48; i++ {
		a3.Enqueue(chaosReport("AP-3", i))
	}
	if d := a3.Dropped(); d != 32 {
		t.Fatalf("AP-3 dropped = %d, want 32", d)
	}
	runAgent(a3, stop)

	// AP-1: reboot from a STALE flash snapshot. The queue is persisted
	// before any harvest; the device then delivers (and gets acks for)
	// part of it, crashes, and restores the stale snapshot — so it
	// re-delivers reports the store already ingested. Dedup must absorb
	// them (dedup hits > 0) without double-counting aggregates, and the
	// restored seq counter must keep post-reboot reports collision-free.
	a1 := chaosAgent("AP-1", health)
	for i := 0; i < 10; i++ {
		a1.Enqueue(chaosReport("AP-1", i))
	}
	var flash1 bytes.Buffer
	if err := a1.SaveQueue(&flash1); err != nil {
		t.Fatal(err)
	}
	stop1 := make(chan struct{})
	runAgent(a1, stop1)
	waitFor(t, "AP-1 pre-crash ingests", func() bool {
		return len(store.RadioSeries("AP-1")) >= 3
	})
	close(stop1) // crash: in-memory queue and in-flight acks are gone

	a1b := chaosAgent("AP-1", health)
	if err := a1b.LoadQueue(bytes.NewReader(flash1.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		a1b.Enqueue(chaosReport("AP-1", i))
	}
	runAgent(a1b, stop)

	// AP-2: the paper's skyscraper OOM reboot. The neighbor table blows
	// its budget, the device reboots, persists its queue on the way
	// down, and the first post-reboot report carries the crash record.
	a2 := chaosAgent("AP-2", health)
	for i := 0; i < 15; i++ {
		a2.Enqueue(chaosReport("AP-2", i))
	}
	stop2 := make(chan struct{})
	runAgent(a2, stop2)
	waitFor(t, "AP-2 pre-crash ingests", func() bool {
		return len(store.RadioSeries("AP-2")) >= 5
	})

	table := anomaly.NewNeighborTable(1) // 1 KB budget OOMs fast
	var crash anomaly.CrashReport
	for bssid := uint64(1); ; bssid++ {
		if err := table.Observe(bssid); err != nil {
			crash = table.OOMCrash("AP-2", 15, "r24.7", 0x80401a2c)
			break
		}
	}
	close(stop2)
	var flash2 bytes.Buffer
	if err := a2.SaveQueue(&flash2); err != nil {
		t.Fatal(err)
	}
	a2b := chaosAgent("AP-2", health)
	if err := a2b.LoadQueue(bytes.NewReader(flash2.Bytes())); err != nil {
		t.Fatal(err)
	}
	r := chaosReport("AP-2", 15)
	r.Crashes = []telemetry.CrashRecord{crash.ToTelemetry()}
	a2b.Enqueue(r)
	for i := 16; i < 30; i++ {
		a2b.Enqueue(chaosReport("AP-2", i))
	}
	runAgent(a2b, stop)

	// Convergence: every surviving report ingested, every queue empty.
	want := map[string]int{"AP-0": 40, "AP-1": 20, "AP-2": 30, "AP-3": 16}
	waitFor(t, "store convergence", func() bool {
		for serial, n := range want {
			if len(store.RadioSeries(serial)) != n {
				return false
			}
		}
		return a0.QueueLen() == 0 && a1b.QueueLen() == 0 &&
			a2b.QueueLen() == 0 && a3.QueueLen() == 0
	})

	// Exactly-once: each expected timestamp stored exactly one time.
	first := map[string]int{"AP-0": 0, "AP-1": 0, "AP-2": 0, "AP-3": 32}
	for serial, n := range want {
		got := tsSet(store, serial)
		for i := first[serial]; i < first[serial]+n; i++ {
			if got[uint64(i)] != 1 {
				t.Errorf("%s ts %d stored %d times, want exactly 1", serial, i, got[uint64(i)])
			}
		}
	}
	ingests, dupes := store.Stats()
	if wantTotal := 40 + 20 + 30 + 16; ingests != wantTotal {
		t.Errorf("unique ingests = %d, want %d", ingests, wantTotal)
	}
	if dupes == 0 {
		t.Error("no dedup hits: the stale-snapshot reboot should have re-delivered acked reports")
	}
	if crashes := store.Crashes("AP-2"); len(crashes) != 1 || anomaly.CrashKind(crashes[0].Kind) != anomaly.CrashOOM {
		t.Errorf("AP-2 crashes = %+v, want exactly one OOM record", crashes)
	}

	// Health counters saw the chaos: sessions were re-established and
	// the overflow drops were declared to the backend.
	snap := health.Snapshot()
	if snap.Reconnects == 0 {
		t.Error("health recorded no reconnects under outages and resets")
	}
	if snap.QueueDrops != 32 {
		t.Errorf("health queue drops = %d, want 32", snap.QueueDrops)
	}
	if total, refused := primary.Accepted(); refused == 0 {
		t.Errorf("primary outage window never refused (accepted %d)", total)
	}

	close(stop)
	primary.Close()
	secondary.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fleet goroutines did not shut down: a harvest path is hanging")
	}
}
