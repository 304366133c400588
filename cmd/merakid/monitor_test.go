package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/faultnet"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/telemetry"
)

// The monitoring harness: two real merakid shards on a fast
// observability cadence (-series-every 100ms, -health-for 2) harvest a
// clean fleet, then shard 1 is degraded by agents whose every tunnel
// op faultnet corrupts. The degradation is client-side, so the daemons
// are stock binaries, and the alert lifecycle is checked from every
// operator seat: "alerts", "status", "watch", the health.* counters,
// shard 0's /debug/federate and one merakireport -watch refresh.

// alertState returns one rule's reported state ("ok", "pending",
// "firing") on a shard.
func alertState(t *testing.T, addr, rule string) string {
	t.Helper()
	lines := query(t, addr, "alerts")
	for _, ln := range lines {
		if f := strings.Fields(ln); len(f) >= 3 && f[0] == rule {
			return f[2]
		}
	}
	t.Fatalf("rule %q missing from alerts reply %q", rule, lines)
	return ""
}

// waitAlert polls one rule until it reaches want.
func waitAlert(t *testing.T, addr, rule, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for st := alertState(t, addr, rule); st != want; st = alertState(t, addr, rule) {
		if time.Now().After(deadline) {
			t.Fatalf("rule %q never reached %q (last state %q)", rule, want, st)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestMonitoringAlertLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess monitoring harness; skipped in -short")
	}
	bin := buildCmd(t, "merakid")
	ports := reservePorts(t, 5)
	listens, queries, debugAddr := ports[:2], ports[2:4], ports[4]
	peers := strings.Join(queries, ",")
	for i := range queries {
		// Volatile stores; shard 0 also serves the debug endpoints.
		flags := []string{
			"-timeout", "500ms",
			"-series-every", "100ms", "-series-cap", "256",
			"-health-for", "2", "-health-for-ok", "2",
			"-shard", strconv.Itoa(i), "-shards", "2", "-peers", peers,
		}
		if i == 0 {
			flags = append(flags, "-debug", debugAddr)
		}
		spawn(t, bin, listens[i], queries[i], "", flags...)
	}

	// Phase 1 — healthy baseline: a clean fleet drains, rules stay ok.
	fleet := fleettest.Fleet{Networks: 4, APs: 1, Reports: 20}
	agents := fleet.Agents()
	fleet.Enqueue(agents, 0, fleet.Reports)
	stop := make(chan struct{})
	defer close(stop)
	fleettest.Run(agents, listens, cluster.NewMap(2), stop)
	drainAgents(t, agents)
	for _, q := range queries {
		if st := alertState(t, q, "harvest-degradation"); st != "ok" {
			t.Fatalf("%s: harvest-degradation after clean harvest = %q, want ok", q, st)
		}
	}

	// Phase 2 — degrade shard 1 with agents whose every frame is
	// corrupt: its harvest-degradation rule must fire, surface in
	// "status" and "watch", and leave shard 0 ok.
	chaosStop := make(chan struct{})
	for i := 0; i < 4; i++ {
		a := telemetry.NewAgent(fmt.Sprintf("Q2MN-CHAOS-%02d", i), fleettest.Key())
		a.Timeout, a.BackoffBase, a.BackoffMax = 500*time.Millisecond, 10*time.Millisecond, 50*time.Millisecond
		plan := faultnet.Plan{Seed: uint64(1000 + i), Corrupt: []faultnet.Window{{From: 0, To: 1 << 30}}, CorruptProb: 1.0}
		a.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.WrapConn(c, plan, i), nil
		}
		go a.RunWithReconnect(listens[1], chaosStop)
	}
	waitAlert(t, queries[1], "harvest-degradation", "firing")
	if status := query(t, queries[1], "status"); !strings.Contains(strings.Join(status, "\n"), "harvest-degradation") {
		t.Fatalf("status does not surface the firing alert: %q", status)
	}
	if watch := query(t, queries[1], "watch"); len(watch) != 1 || !strings.Contains(watch[0], "firing=harvest-degradation") {
		t.Fatalf("watch line does not surface the firing alert: %q", watch)
	}
	if st := alertState(t, queries[0], "harvest-degradation"); st != "ok" {
		t.Fatalf("healthy shard 0 harvest-degradation = %q, want ok", st)
	}

	// Phase 3 — recovery: the chaos stops, the alert resolves, and both
	// transitions are counted.
	close(chaosStop)
	waitAlert(t, queries[1], "harvest-degradation", "ok")
	metrics := make(map[string]int)
	for _, ln := range query(t, queries[1], "metrics") {
		name, v, _ := strings.Cut(ln, " ")
		metrics[name], _ = strconv.Atoi(v)
	}
	if metrics["health.fired"] < 1 || metrics["health.resolved"] < 1 {
		t.Fatalf("transition counters fired=%d resolved=%d, want both >= 1", metrics["health.fired"], metrics["health.resolved"])
	}

	// Phase 4 — federation and the dashboard: shard 0's /debug/federate
	// carries both shards' samples in one exposition, and one
	// merakireport -watch refresh renders a line per shard.
	resp, err := http.Get("http://" + debugAddr + "/debug/federate")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("federate status %d (%v): %s", resp.StatusCode, err, body)
	}
	for _, want := range []string{`store_ingests{shard="0"}`, `store_ingests{shard="1"}`, `health_fired{shard="1"}`, "# federation shards=2 up=2"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("federated exposition missing %q:\n%s", want, body)
		}
	}
	out, err := exec.Command(buildCmd(t, "merakireport"), "-cluster", peers, "-watch", "-watch-count", "1", "-watch-every", "100ms").CombinedOutput()
	if err != nil {
		t.Fatalf("merakireport -watch: %v\n%s", err, out)
	}
	for _, want := range []string{"fleet watch", "shard=0/2", "shard=1/2", "up=2"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("watch dashboard missing %q:\n%s", want, out)
		}
	}
}
