package main

import (
	"fmt"
	"testing"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/rng"
	"wlanscale/internal/telemetry"
)

// The kill harness: a real merakid subprocess harvesting a small agent
// fleet is SIGKILLed at a seeded random moment and restarted over the
// same -wal-dir. Once the agents drain (every report acked), the
// daemon's "digest" query must equal a never-crashed control store fed
// the same reports — exactly-once across process death: no acked
// report lost, none double-counted. The subprocess plumbing is
// internal/fleettest; these wrappers only turn its errors into
// t.Fatal.

var crashFleet = fleettest.Fleet{Networks: 3, APs: 1, Reports: 120}

// buildCmd compiles wlanscale/cmd/<name> once per test binary.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin, err := fleettest.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs, err := fleettest.Ports(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// spawn starts a merakid — WAL-backed, or volatile when walDir is "" —
// and kills it when the test ends.
func spawn(t *testing.T, bin, listen, query, walDir string, extra ...string) *fleettest.Daemon {
	t.Helper()
	d, err := fleettest.Start(bin, listen, query, walDir, extra...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Kill)
	return d
}

func restart(t *testing.T, d *fleettest.Daemon) {
	t.Helper()
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
}

// drainAgents waits for the fleet to drain within a budget derived from
// the test binary's own -timeout instead of a hard-coded constant. A
// fixed 30 s guess flaked under -race on loaded runners — the race
// detector slows the harvest several-fold while the budget stayed
// fixed — whereas t.Deadline minus a teardown margin spends every
// second the run actually has. Without a deadline (-timeout 0) the old
// 30 s stands, and a floor keeps the loop from failing before its
// first poll when the remaining budget is nearly gone.
func drainAgents(t *testing.T, agents []*telemetry.Agent) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-10 * time.Second)
		if floor := time.Now().Add(5 * time.Second); deadline.Before(floor) {
			deadline = floor
		}
	}
	if err := fleettest.Drain(agents, deadline); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill harness; skipped in -short")
	}
	bin := buildCmd(t, "merakid")
	want := crashFleet.ControlDigest()

	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			addrs := reservePorts(t, 2)
			listen, qaddr := addrs[0], addrs[1]

			// The fleet: enqueue everything up front, then let the
			// reconnect loop ship it through the crash. Wire versions
			// alternate so every recovery replays a WAL holding both
			// record shapes: per-report v1 records and whole-batch v2
			// frame records.
			agents := crashFleet.Agents()
			crashFleet.Enqueue(agents, 0, crashFleet.Reports)
			d := spawn(t, bin, listen, qaddr, t.TempDir())
			stop := make(chan struct{})
			defer close(stop)
			fleettest.Run(agents, []string{listen}, cluster.NewMap(1), stop)

			// SIGKILL at a seeded moment mid-harvest. With -poll 20ms and
			// 120 reports per agent in 8-report batches a full harvest
			// takes ~300ms; the 30–400ms window below lands kills
			// everywhere from "barely started" to "already drained".
			delay := 30 + time.Duration(rng.New(seed).Split("kill-delay").IntN(370))
			time.Sleep(delay * time.Millisecond)
			restart(t, d)

			// Drained queues mean every report was acked — and merakid
			// only acks after the WAL append and in-memory ingest.
			drainAgents(t, agents)

			lines := query(t, qaddr, "digest")
			if len(lines) != 1 {
				t.Fatalf("digest query answered %q", lines)
			}
			if lines[0] != want {
				status := query(t, qaddr, "status")
				t.Fatalf("post-recovery digest mismatch\n got %s\nwant %s\nstatus: %v",
					lines[0], want, status)
			}
		})
	}
}

// TestCrashRecoveryDoubleKill kills the daemon twice — once
// mid-harvest and once right after recovery — to prove replay is
// idempotent under repeated crashes, not just one.
func TestCrashRecoveryDoubleKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill harness; skipped in -short")
	}
	bin := buildCmd(t, "merakid")
	want := crashFleet.ControlDigest()
	addrs := reservePorts(t, 2)
	listen, qaddr := addrs[0], addrs[1]

	agents := crashFleet.Agents()
	crashFleet.Enqueue(agents, 0, crashFleet.Reports)
	d := spawn(t, bin, listen, qaddr, t.TempDir())
	stop := make(chan struct{})
	defer close(stop)
	fleettest.Run(agents, []string{listen}, cluster.NewMap(1), stop)
	for _, wait := range []time.Duration{120 * time.Millisecond, 40 * time.Millisecond} {
		time.Sleep(wait)
		restart(t, d)
	}

	drainAgents(t, agents)
	lines := query(t, qaddr, "digest")
	if len(lines) != 1 || lines[0] != want {
		t.Fatalf("digest after double kill = %q, want %s", lines, want)
	}
}
