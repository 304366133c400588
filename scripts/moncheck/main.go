// Command moncheck is the monitoring-stack smoke gate (`make
// mon-smoke`): it builds merakid, spawns a 2-shard cluster on a fast
// observability cadence (-series-every 100ms, -health-for 2), harvests
// a clean agent fleet, then degrades shard 1 with faultnet-corrupted
// chaos agents and checks the full alert lifecycle from the operator's
// seats:
//
//   - shard 1's harvest-degradation rule must fire while the chaos
//     fleet runs (visible in "alerts", "status", and "watch"),
//   - it must resolve after the chaos stops, with the transition
//     counted in health.fired / health.resolved,
//   - and shard 0's /debug/federate must serve one merged exposition
//     carrying samples from both shards, shard-labeled.
//
// Any missed transition or missing shard fails the build. The
// degradation source is client-side corruption (telemetry.Agent.Dial
// wrapped by faultnet), so the daemons under test are stock binaries.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/dot11"
	"wlanscale/internal/faultnet"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/queryproto"
	"wlanscale/internal/telemetry"
)

// queryTimeout bounds one query exchange against a shard.
const queryTimeout = 5 * time.Second

// alertState returns one rule's reported state on a shard ("ok",
// "pending", "firing").
func alertState(query, rule string) (string, error) {
	lines, err := queryproto.Do(query, queryTimeout, "alerts")
	if err != nil {
		return "", err
	}
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) >= 3 && fields[0] == rule {
			return fields[2], nil
		}
	}
	return "", fmt.Errorf("rule %q missing from alerts reply %q", rule, lines)
}

// waitForState polls one rule until it reaches want or the deadline
// passes.
func waitForState(query, rule, want string, deadline time.Duration) error {
	var last string
	until := time.Now().Add(deadline)
	for time.Now().Before(until) {
		st, err := alertState(query, rule)
		if err != nil {
			return err
		}
		if st == want {
			return nil
		}
		last = st
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("rule %q never reached %q (last state %q)", rule, want, last)
}

// metricValue reads one scalar from a shard's "metrics" reply.
func metricValue(query, name string) (int64, error) {
	lines, err := queryproto.Do(query, queryTimeout, "metrics")
	if err != nil {
		return 0, err
	}
	for _, ln := range lines {
		n, rest, ok := strings.Cut(ln, " ")
		if ok && n == name {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return v, err
		}
	}
	return 0, fmt.Errorf("metric %q missing", name)
}

// report builds one minimal well-formed harvest report.
func report(serial string, i int) *telemetry.Report {
	return &telemetry.Report{
		Serial:    serial,
		Timestamp: uint64(1700000000 + i),
		SeqNo:     uint64(i + 1),
		Clients: []telemetry.ClientRecord{{
			MAC:  dot11.MAC{0x02, 0xc6, 0x09, 0x00, 0x00, byte(i)},
			Band: dot11.Band5,
		}},
	}
}

// startAgents launches n agents against one shard's device listener.
// With corrupt set, each agent's connections pass through a faultnet
// wrapper that corrupts every I/O op — the daemon sees a stream of MAC
// failures, never a valid session.
func startAgents(listen string, n int, serialPrefix string, corrupt bool, stop chan struct{}) []*telemetry.Agent {
	agents := make([]*telemetry.Agent, n)
	for i := 0; i < n; i++ {
		a := telemetry.NewAgent(fmt.Sprintf("%s-%02d", serialPrefix, i), fleettest.Key())
		a.Timeout = 500 * time.Millisecond
		a.BackoffBase = 10 * time.Millisecond
		a.BackoffMax = 50 * time.Millisecond
		if corrupt {
			plan := faultnet.Plan{
				Seed:        uint64(1000 + i),
				Corrupt:     []faultnet.Window{{From: 0, To: 1 << 30}},
				CorruptProb: 1.0,
			}
			idx := i
			a.Dial = func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return faultnet.WrapConn(c, plan, idx), nil
			}
		}
		for r := 0; r < 20; r++ {
			a.Enqueue(report(fmt.Sprintf("%s-%02d", serialPrefix, i), r))
		}
		agents[i] = a
		go a.RunWithReconnect(listen, stop)
	}
	return agents
}

func run() error {
	defer fleettest.Cleanup()
	bin, err := fleettest.Build("merakid")
	if err != nil {
		return err
	}
	const shards = 2
	ports, err := fleettest.Ports(2*shards + 1)
	if err != nil {
		return err
	}
	listens, queries, debugAddr := ports[:2], ports[2:4], ports[4]
	peers := strings.Join(queries, ",")
	for i := 0; i < shards; i++ {
		// A fast observability cadence, volatile stores; shard 0 also
		// serves the debug endpoints.
		flags := []string{
			"-timeout", "500ms",
			"-series-every", "100ms", "-series-cap", "256",
			"-health-for", "2", "-health-for-ok", "2",
			"-shard", strconv.Itoa(i), "-shards", strconv.Itoa(shards), "-peers", peers,
		}
		if i == 0 {
			flags = append(flags, "-debug", debugAddr)
		}
		d, err := fleettest.Start(bin, listens[i], queries[i], "", flags...)
		if err != nil {
			return err
		}
		defer d.Kill()
	}

	// Phase 1 — healthy baseline: clean agents on both shards, rules ok.
	stop := make(chan struct{})
	defer close(stop)
	var clean []*telemetry.Agent
	for i := 0; i < shards; i++ {
		clean = append(clean, startAgents(listens[i], 2, fmt.Sprintf("Q2MN-S%d", i), false, stop)...)
	}
	if err := fleettest.Drain(clean, time.Now().Add(30*time.Second)); err != nil {
		return fmt.Errorf("clean fleet: %v", err)
	}
	for i := 0; i < shards; i++ {
		if st, err := alertState(queries[i], "harvest-degradation"); err != nil || st != "ok" {
			return fmt.Errorf("shard %d harvest-degradation after clean harvest = %q (%v), want ok", i, st, err)
		}
	}

	// Phase 2 — degrade shard 1: chaos agents whose every frame is
	// corrupt. The harvest-degradation rule (error delta over 3 ticks)
	// must fire on shard 1 and stay ok on shard 0.
	chaosStop := make(chan struct{})
	startAgents(listens[1], 4, "Q2MN-CHAOS", true, chaosStop)
	if err := waitForState(queries[1], "harvest-degradation", "firing", 30*time.Second); err != nil {
		close(chaosStop)
		return fmt.Errorf("degraded shard: %v", err)
	}
	// The firing alert surfaces on every operator view of shard 1.
	status, err := queryproto.Do(queries[1], queryTimeout, "status")
	if err != nil {
		return err
	}
	if !strings.Contains(strings.Join(status, "\n"), "harvest-degradation") {
		return fmt.Errorf("status does not surface the firing alert: %q", status)
	}
	watch, err := queryproto.Do(queries[1], queryTimeout, "watch")
	if err != nil {
		return err
	}
	if len(watch) != 1 || !strings.Contains(watch[0], "firing=harvest-degradation") {
		return fmt.Errorf("watch line does not surface the firing alert: %q", watch)
	}
	if st, err := alertState(queries[0], "harvest-degradation"); err != nil || st != "ok" {
		return fmt.Errorf("healthy shard 0 harvest-degradation = %q (%v), want ok", st, err)
	}

	// Phase 3 — recovery: stop the chaos, the alert must resolve and the
	// transition must be counted.
	close(chaosStop)
	if err := waitForState(queries[1], "harvest-degradation", "ok", 30*time.Second); err != nil {
		return fmt.Errorf("recovery: %v", err)
	}
	fired, err := metricValue(queries[1], "health.fired")
	if err != nil {
		return err
	}
	resolved, err := metricValue(queries[1], "health.resolved")
	if err != nil {
		return err
	}
	if fired < 1 || resolved < 1 {
		return fmt.Errorf("transition counters fired=%d resolved=%d, want both >= 1", fired, resolved)
	}

	// Phase 4 — federation: shard 0's /debug/federate carries both
	// shards' samples in one exposition.
	resp, err := http.Get("http://" + debugAddr + "/debug/federate")
	if err != nil {
		return fmt.Errorf("federate scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("federate status %d: %s", resp.StatusCode, body)
	}
	text := string(body)
	for _, want := range []string{
		`store_ingests{shard="0"}`,
		`store_ingests{shard="1"}`,
		`health_fired{shard="1"}`,
		"# federation shards=2 up=2",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("federated exposition missing %q:\n%s", want, text)
		}
	}

	// Phase 5 — the operator dashboard: one merakireport -watch refresh
	// renders a line per shard from the same fleet.
	rep, err := fleettest.Build("merakireport")
	if err != nil {
		return err
	}
	out, err := exec.Command(rep, "-cluster", peers, "-watch", "-watch-count", "1", "-watch-every", "100ms").CombinedOutput()
	if err != nil {
		return fmt.Errorf("merakireport -watch: %v\n%s", err, out)
	}
	for _, want := range []string{"fleet watch", "shard=0/2", "shard=1/2", "up=2"} {
		if !strings.Contains(string(out), want) {
			return fmt.Errorf("watch dashboard missing %q:\n%s", want, out)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "moncheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("moncheck: PASS: alert fired and resolved under induced degradation; federation carried both shards")
}
