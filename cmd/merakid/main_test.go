package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/dot11"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/queryproto"
	"wlanscale/internal/telemetry"
)

// startQueryServer runs a daemon's query listener on an ephemeral port
// and returns its address.
func startQueryServer(t *testing.T) (*daemon, string) {
	t.Helper()
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go d.acceptQueries(ln)
	return d, ln.Addr().String()
}

// query sends one command and returns the response lines; a transport
// failure or a truncated reply fails the test.
func query(t *testing.T, addr, command string) []string {
	t.Helper()
	lines, err := queryproto.Do(addr, 10*time.Second, command)
	if err != nil {
		t.Fatalf("%s: %v", command, err)
	}
	return lines
}

// TestMain removes the merakid binary the subprocess harnesses built.
func TestMain(m *testing.M) {
	code := m.Run()
	fleettest.Cleanup()
	os.Exit(code)
}

// TestTopAppsBadCount is the regression test for the remote crash: a
// negative count used to reach rows[:n] and panic the whole daemon from
// the unauthenticated query port. Bad counts answer ERR and the daemon
// keeps serving; byte-count ties break by name so the reply is
// deterministic.
func TestTopAppsBadCount(t *testing.T) {
	d, addr := startQueryServer(t)
	for i, app := range []string{"Zulu", "Alpha", "Mike"} {
		d.store.Ingest(&telemetry.Report{
			Serial: "Q2AA-TOP", SeqNo: uint64(i + 1),
			Clients: []telemetry.ClientRecord{{
				MAC:  dot11.MAC{0xac, 1, 2, 3, 4, byte(i)},
				Band: dot11.Band5,
				Apps: []telemetry.AppUsageRecord{{App: app, UpBytes: 10, DownBytes: 90}},
			}},
		})
	}
	for _, bad := range []string{"-1", "0", "many"} {
		got := query(t, addr, "top-apps "+bad)
		if want := fmt.Sprintf("ERR bad count %q", bad); len(got) != 1 || got[0] != want {
			t.Errorf("top-apps %s = %q, want %q", bad, got, want)
		}
	}
	want := []string{"Alpha\t100 bytes\t1 clients", "Mike\t100 bytes\t1 clients"}
	for i := 0; i < 5; i++ {
		if got := query(t, addr, "top-apps 2"); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("top-apps 2 = %q, want %q", got, want)
		}
	}
	if got := query(t, addr, "top-apps"); len(got) != 3 {
		t.Fatalf("bare top-apps = %q, want all 3 rows", got)
	}
}

// TestTopAppsConcurrentIngest: top-apps sums per-app totals that Ingest
// updates in place, so under -race this pins that the sum is read under
// the store lock rather than from aggregates handed out by Clients().
func TestTopAppsConcurrentIngest(t *testing.T) {
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	report := func(seq uint64) *telemetry.Report {
		r := &telemetry.Report{Serial: "Q2AA-RACE", SeqNo: seq}
		for k := 0; k < 8; k++ {
			r.Clients = append(r.Clients, telemetry.ClientRecord{
				MAC:  dot11.MAC{0xac, 1, 2, 3, 5, byte(k)},
				Band: dot11.Band5,
				Apps: []telemetry.AppUsageRecord{{App: "Alpha", UpBytes: 1, DownBytes: 9, Flows: 1}},
			})
		}
		return r
	}
	d.store.Ingest(report(1))
	const reports = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(2); seq <= reports; seq++ {
			d.store.Ingest(report(seq))
		}
	}()
	for i := 0; i < 200; i++ {
		if err := d.queryTopApps(bufio.NewWriter(io.Discard), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	var out strings.Builder
	w := bufio.NewWriter(&out)
	if err := d.queryTopApps(w, nil, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if want := fmt.Sprintf("Alpha\t%d bytes\t8 clients\n", 8*10*reports); out.String() != want {
		t.Fatalf("top-apps = %q, want %q", out.String(), want)
	}
}

// TestAbsorbRefusesBadPayload: an absorb whose payload is cut off
// before its blank terminator, or exceeds queryproto.MaxPayload, is
// refused by the Serve loop before the handler runs — the store digest
// and the WAL position do not move — while the same slice pushed whole
// is applied.
func TestAbsorbRefusesBadPayload(t *testing.T) {
	d, addr := startQueryServer(t)
	if _, err := d.attachDurable(t.TempDir(), backend.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	defer d.durable.Close()
	src := backend.NewStore()
	src.Ingest(&telemetry.Report{
		Serial: "Q2AA-007-1", SeqNo: 1,
		Clients: []telemetry.ClientRecord{{MAC: dot11.MAC{0xac, 7, 7, 7, 7, 7}, Band: dot11.Band5}},
	})
	var b strings.Builder
	if err := cluster.WriteSnapshotLines(&b, src); err != nil {
		t.Fatal(err)
	}
	slice := strings.Fields(b.String())
	digest, lsn := d.store.Digest(), d.durable.WAL().NextLSN()
	unchanged := func(when string) {
		t.Helper()
		if got := d.store.Digest(); got != digest {
			t.Fatalf("%s changed the store digest", when)
		}
		if got := d.durable.WAL().NextLSN(); got != lsn {
			t.Fatalf("%s moved the WAL from LSN %d to %d", when, lsn, got)
		}
	}

	// Truncated: header and payload, then a half-close instead of the
	// blank terminator.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "absorb tok 7\n%s\n", strings.Join(slice, "\n"))
	conn.(*net.TCPConn).CloseWrite()
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ERR truncated payload\n\n" {
		t.Fatalf("truncated absorb answered %q", reply)
	}
	unchanged("truncated absorb")

	// Over the cap: well-formed but too large, so refused unread.
	big := make([]string, queryproto.MaxPayload/4096+1)
	for i := range big {
		big[i] = strings.Repeat("A", 4096)
	}
	if got := push(t, addr, "absorb tok 7", big); len(got) != 1 || !strings.HasPrefix(got[0], "ERR payload exceeds") {
		t.Fatalf("over-cap absorb answered %q", got)
	}
	unchanged("over-cap absorb")

	if got := push(t, addr, "absorb tok 7", slice); len(got) != 1 || got[0] != "absorbed token=tok networks=1" {
		t.Fatalf("whole absorb answered %q", got)
	}
	if d.store.Digest() != src.Digest() || d.durable.WAL().NextLSN() == lsn {
		t.Fatal("whole absorb did not apply and log the slice")
	}
}

var updateDocs = flag.Bool("update", false, "rewrite docs/COMMANDS.md from the command table")

// TestCommandsDoc keeps docs/COMMANDS.md generated from the command
// table: `go test ./cmd/merakid -run TestCommandsDoc -update` (make
// docs-gen) regenerates it, and `make docs` fails when it is stale.
func TestCommandsDoc(t *testing.T) {
	var b strings.Builder
	b.WriteString("# merakid query commands\n\n" +
		"<!-- Generated from the command table in cmd/merakid/commands.go by TestCommandsDoc; do not edit. Regenerate with `make docs-gen`. -->\n\n" +
		"One command per line on the `-query` port; framing rules are in DESIGN.md §14 (Query protocol). " +
		"`apstat COMMAND [ARGS]` sends one command and prints the reply.\n")
	for _, c := range newDaemon(nil, time.Second, 64, time.Second, 0, 16).cmds {
		usage := c.Name
		if c.Usage != "" {
			usage += " " + c.Usage
		}
		fmt.Fprintf(&b, "\n## `%s`\n\n%s\n", usage, c.Help)
		if c.Payload {
			b.WriteString("\nThe request line is followed by payload lines ended by one blank line.\n")
		}
	}
	const path = "../../docs/COMMANDS.md"
	if *updateDocs {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	have, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(have) != b.String() {
		t.Fatalf("%s is stale; run `make docs-gen`", path)
	}
}

// FuzzServeLine: no command line, however malformed, may panic a
// handler — the query port is unauthenticated and a panic takes the
// whole daemon down. "save" is skipped because it writes wherever the
// input says.
func FuzzServeLine(f *testing.F) {
	for _, seed := range []string{"top-apps -1", "series x 0", "extract ,", "absorb t", "trace", "fanout fanout", "part 1,,2", "drop t"} {
		f.Add(seed)
	}
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	d.attachSeries(8, 1, 1, true)
	f.Fuzz(func(t *testing.T, line string) {
		line, _, _ = strings.Cut(line, "\n")
		if fields := strings.Fields(line); len(fields) > 0 && fields[0] == "save" {
			t.Skip()
		}
		client, server := net.Pipe()
		go queryproto.Serve(server, d.cmds)
		client.SetDeadline(time.Now().Add(10 * time.Second))
		// The blank line ends the payload of a payload-carrying command.
		go fmt.Fprintf(client, "%s\n\nquit\n", line)
		if _, err := io.Copy(io.Discard, client); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	})
}

// TestQueryMetrics checks that one "metrics" round trip returns
// harvest, pool, and store counters together.
func TestQueryMetrics(t *testing.T) {
	d, addr := startQueryServer(t)
	// Give the store something to count.
	d.store.Ingest(&telemetry.Report{
		Serial: "Q2AA-TEST", SeqNo: 1,
		Clients: []telemetry.ClientRecord{{MAC: dot11.MAC{0xac, 1, 2, 3, 4, 5}, Band: dot11.Band5}},
	})
	lines := query(t, addr, "metrics")
	byName := make(map[string]string)
	for _, l := range lines {
		name, rest, ok := strings.Cut(l, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", l)
		}
		byName[name] = rest
	}
	for _, want := range []string{
		"harvest.polls", "harvest.reconnects", "harvest.timeouts",
		"pool.devices", "pool.disconnects",
		"store.ingests", "store.clients", "store.save_us",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("metrics response missing %q", want)
		}
	}
	if byName["store.ingests"] != "1" {
		t.Errorf("store.ingests = %q, want 1", byName["store.ingests"])
	}
	if byName["store.clients"] != "1" {
		t.Errorf("store.clients = %q, want 1", byName["store.clients"])
	}
}

// TestDebugMux drives the -debug HTTP surface: /debug/vars must serve
// the registry as valid JSON and the pprof index must answer.
func TestDebugMux(t *testing.T) {
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	srv := httptest.NewServer(debugMux(d))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/vars content type %q", ct)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["store.ingests"]; !ok {
		t.Fatalf("/debug/vars missing store.ingests; keys: %d", len(vars))
	}

	pp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status %d", pp.StatusCode)
	}

	// Without a series recorder or cluster peers, the observability
	// endpoints answer 404, not 500 or an empty 200.
	for _, path := range []string{"/debug/series", "/debug/federate"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s without feature status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDebugSeriesEndpoint drives /debug/series on a daemon with the
// recorder attached: full dump, a ?metric= narrow, and a 404 for an
// unknown metric.
func TestDebugSeriesEndpoint(t *testing.T) {
	d := newDaemon(nil, time.Second, 64, time.Second, 1.0, 1024)
	d.attachSeries(32, 2, 2, true)
	base := time.Unix(1000, 0)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-SER", SeqNo: 1})
	d.series.Sample(base)
	d.series.Sample(base.Add(time.Second))

	srv := httptest.NewServer(debugMux(d))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/series?metric=store.ingests&n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/series status %d", resp.StatusCode)
	}
	var body map[string]struct {
		Kind   string           `json:"kind"`
		Points []map[string]any `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/debug/series is not JSON: %v", err)
	}
	got, ok := body["store.ingests"]
	if !ok {
		t.Fatalf("/debug/series?metric=store.ingests missing series; keys=%d", len(body))
	}
	if len(got.Points) != 2 {
		t.Fatalf("store.ingests points = %d, want 2", len(got.Points))
	}

	bad, err := srv.Client().Get(srv.URL + "/debug/series?metric=no.such.metric")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 404 {
		t.Fatalf("/debug/series unknown metric status %d, want 404", bad.StatusCode)
	}
}

// TestQuerySeries pins the "series" query protocol: the bare form lists
// recorded metric names, the metric form prints points oldest first,
// and bad arguments answer ERR lines.
func TestQuerySeries(t *testing.T) {
	d, addr := startQueryServer(t)
	d.attachSeries(32, 2, 2, true)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-SER", SeqNo: 1})
	base := time.Unix(2000, 0)
	d.series.Sample(base)
	d.series.Sample(base.Add(time.Second))

	names := query(t, addr, "series")
	found := false
	for _, n := range names {
		if n == "store.ingests" {
			found = true
		}
	}
	if !found {
		t.Fatalf("series name list missing store.ingests: %v", names)
	}

	pts := query(t, addr, "series store.ingests 5")
	if len(pts) != 2 {
		t.Fatalf("series store.ingests returned %d lines, want 2: %v", len(pts), pts)
	}
	for _, p := range pts {
		if !strings.HasPrefix(p, "t=") || !strings.Contains(p, " v=") {
			t.Errorf("malformed point line %q", p)
		}
	}

	if got := query(t, addr, "series store.ingests zero"); len(got) != 1 || !strings.HasPrefix(got[0], "ERR bad point count") {
		t.Errorf("bad point count answered %v, want ERR line", got)
	}
	if got := query(t, addr, "series no.such.metric"); len(got) != 1 || !strings.HasPrefix(got[0], "ERR") {
		t.Errorf("unknown metric answered %v, want ERR line", got)
	}
}

// TestQuerySeriesDisabled: without a recorder the series query answers
// an ERR line pointing at the flag, not a panic or silence.
func TestQuerySeriesDisabled(t *testing.T) {
	_, addr := startQueryServer(t)
	got := query(t, addr, "series")
	if len(got) != 1 || !strings.HasPrefix(got[0], "ERR series recording disabled") {
		t.Fatalf("series without recorder answered %v, want ERR disabled line", got)
	}
}

// TestQueryAlertsAndStatus drives the health engine through the query
// surface: "alerts" lists every rule with its state, and "status" gains
// an "alerts firing=" line when the engine is attached.
func TestQueryAlertsAndStatus(t *testing.T) {
	d, addr := startQueryServer(t)
	d.attachSeries(32, 1, 1, true)
	base := time.Unix(3000, 0)
	d.series.Sample(base)
	d.alerts.Eval(base)

	lines := query(t, addr, "alerts")
	if len(lines) == 0 {
		t.Fatal("alerts answered no lines")
	}
	byRule := make(map[string]string)
	for _, l := range lines {
		name, _, _ := strings.Cut(l, " ")
		byRule[name] = l
	}
	for _, want := range []string{"harvest-degradation", "wal-degraded", "dedup-spike", "harvest-silence"} {
		l, ok := byRule[want]
		if !ok {
			t.Errorf("alerts missing default rule %q: %v", want, lines)
			continue
		}
		if !strings.Contains(l, " ok ") {
			t.Errorf("rule %q not ok on a healthy daemon: %q", want, l)
		}
	}

	status := query(t, addr, "status")
	var alertLine string
	for _, l := range status {
		if strings.HasPrefix(l, "alerts firing=") {
			alertLine = l
		}
	}
	if alertLine != "alerts firing=0 -" {
		t.Errorf("status alert line = %q, want \"alerts firing=0 -\"", alertLine)
	}
}

// TestQueryWatch pins the machine-readable watch line merakireport
// -watch fans out: one line, fixed key=value fields.
func TestQueryWatch(t *testing.T) {
	d, addr := startQueryServer(t)
	d.attachSeries(32, 1, 1, true)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-W", SeqNo: 1})
	base := time.Unix(4000, 0)
	d.series.Sample(base)
	d.series.Sample(base.Add(2 * time.Second))
	d.alerts.Eval(base.Add(2 * time.Second))

	lines := query(t, addr, "watch")
	if len(lines) != 1 {
		t.Fatalf("watch answered %d lines, want 1: %v", len(lines), lines)
	}
	for _, key := range []string{"shard=", "devices=", "ingested=", "dupes=", "rate=", "wal_p99_us=", "degraded=", "firing="} {
		if !strings.Contains(lines[0], key) {
			t.Errorf("watch line missing %q: %q", key, lines[0])
		}
	}
	if !strings.Contains(lines[0], "ingested=1") {
		t.Errorf("watch line ingested != 1: %q", lines[0])
	}
	if !strings.Contains(lines[0], "firing=-") {
		t.Errorf("watch line firing != -: %q", lines[0])
	}
}

// TestQueryProm: the "prom" query — federation's per-shard payload —
// must serve the Prometheus exposition with TYPE metadata.
func TestQueryProm(t *testing.T) {
	d, addr := startQueryServer(t)
	d.store.Ingest(&telemetry.Report{Serial: "Q2AA-P", SeqNo: 1})
	lines := query(t, addr, "prom")
	var typeLines, samples int
	for _, l := range lines {
		if strings.HasPrefix(l, "# TYPE ") {
			typeLines++
		} else if !strings.HasPrefix(l, "#") {
			samples++
		}
	}
	if typeLines == 0 || samples == 0 {
		t.Fatalf("prom answered %d TYPE lines and %d samples, want both > 0", typeLines, samples)
	}
}
