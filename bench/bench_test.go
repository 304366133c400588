package main

import (
	"math"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The study workload re-executes its own binary; under `go test` that
// binary is the test binary, so it must answer the child's call.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-study-child" {
		os.Exit(studyChildMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

func TestQuantileAndSupport(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("quantile and median of nothing must be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// A percentile is reported only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false}, {10000, 0.999, true}, {9, 0.5, false}, {20, 0.5, true}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	// tail: p99 when supported, the slowest op otherwise.
	if got := tail(xs); got != 990 {
		t.Errorf("tail of 1000 samples = %v, want p99 = 990", got)
	}
	if got := tail([]float64{3, 9, 5}); got != 9 {
		t.Errorf("tail of 3 samples = %v, want the slowest, 9", got)
	}
}

func TestPacerTimesFromDueInstant(t *testing.T) {
	start := time.Unix(1000, 0)
	p := &pacer{start: start, interval: 10 * time.Millisecond, total: 5}
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }

	if got := p.dueBy(at(-1)); got != 0 {
		t.Errorf("due before start = %d, want 0", got)
	}
	if got := p.dueBy(at(0)); got != 1 {
		t.Errorf("due at start = %d, want 1", got)
	}
	if got := p.dueBy(at(25)); got != 3 {
		t.Errorf("due at 25 ms = %d, want 3 (reports 0, 10, 20)", got)
	}
	if got := p.dueBy(at(10_000)); got != 5 {
		t.Errorf("due long after = %d, want the total, 5", got)
	}

	// The sender stalls: it wakes at 25 ms and only then sends reports
	// 0, 1 and 2. They are 25, 15 and 5 ms late.
	for p.sent < p.dueBy(at(25)) {
		p.noteSent(at(25))
	}
	if p.sent != 3 || p.lateMax != 25*time.Millisecond {
		t.Fatalf("sent=%d lateMax=%v, want 3 and 25ms", p.sent, p.lateMax)
	}
	// All three acks are seen at 30 ms. Latency runs from when each was
	// due, not from when it was sent: 30, 20 and 10 ms, not 5, 5, 5.
	p.noteAcked(3, at(30))
	want := []float64{30, 20, 10}
	if len(p.latencyMS) != 3 {
		t.Fatalf("latencies = %v", p.latencyMS)
	}
	for i := range want {
		if p.latencyMS[i] != want[i] {
			t.Errorf("latency[%d] = %v ms, want %v", i, p.latencyMS[i], want[i])
		}
	}
	// Acks never run backwards.
	p.noteAcked(2, at(40))
	if p.acked != 3 || len(p.latencyMS) != 3 {
		t.Errorf("a stale ack count changed the books: acked=%d", p.acked)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: "a", Name: "root", ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{Layer: "b", Name: "kid1", ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{Layer: "b", Name: "kid2", ID: 2, Parent: 0, StartNS: 30, EndNS: 60},  // overlaps kid1
		{Layer: "c", Name: "kid3", ID: 3, Parent: 0, StartNS: 90, EndNS: 120}, // sticks out
		{Layer: "c", Name: "grandkid", ID: 4, Parent: 1, StartNS: 15, EndNS: 25},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// root: 100 − union([10,60] ∪ [90,100]) = 100 − 60 = 40.
	want := []int64{40, 20, 30, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	byLayer, err := layerSelfMS(spans)
	if err != nil {
		t.Fatal(err)
	}
	if byLayer["a"] != 40e-6 || byLayer["b"] != 50e-6 || byLayer["c"] != 40e-6 {
		t.Errorf("self by layer = %v", byLayer)
	}
	spans[2].EndNS = -1
	if _, err := selfTimes(spans); err == nil {
		t.Error("an unfinished span must be an error")
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.start("x", "y", -1, 0)
	tr.end(id)
	if id != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded: id=%d spans=%d", id, len(tr.spans))
	}
}

func TestReconcile(t *testing.T) {
	if r, err := reconcile("x", 90, 100, 0.15); err != nil || r != 0.9 {
		t.Errorf("90 vs 100 within 15 %%: ratio=%v err=%v", r, err)
	}
	if _, err := reconcile("x", 80, 100, 0.15); err == nil {
		t.Error("80 vs 100 must fail a 15 % reconcile")
	}
	if _, err := reconcile("x", 120, 100, 0.15); err == nil {
		t.Error("120 vs 100 must fail a 15 % reconcile")
	}
	if _, err := reconcile("x", 1, 0, 0.15); err == nil {
		t.Error("nothing measured must fail")
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "1234 (mer akid) (x)) S 1 1234 1234 0 -1 4194560 500 0 0 0 250 75 0 0 20 0 9 0 100 1000000 500 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3.25 {
		t.Errorf("parseStatCPU = %v, %v; want 3.25 s (250+75 ticks)", got, err)
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("short stat line must be an error")
	}
	status := "Name:\tmerakid\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  100 kB\n"
	mib, err := parseVmHWM(status)
	if err != nil || mib != 512 {
		t.Errorf("parseVmHWM = %v, %v; want 512 MiB", mib, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM must be an error")
	}
	// And the real thing, on this process.
	if s, err := cpuSeconds(os.Getpid()); err != nil || s < 0 {
		t.Errorf("cpuSeconds(self) = %v, %v", s, err)
	}
	if m, err := peakRSSMiB(os.Getpid()); err != nil || m <= 0 {
		t.Errorf("peakRSSMiB(self) = %v, %v", m, err)
	}
}

func TestCountConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var wrote atomic.Int64
	c := countConn{a, &wrote}
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	for _, n := range []int{5, 0, 17} {
		if _, err := c.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if wrote.Load() != 22 {
		t.Errorf("counted %d bytes, wrote 22", wrote.Load())
	}
}

func TestRebalanceSteps(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	stamps := []logStamp{
		{"rebalance: discovering networks across %d shard(s)", at(0)},
		{"rebalance: moving %d network(s) across %d shard pair(s)", at(5)},
		{"rebalance: extracted %d network(s) from shard %d for shard %d (%d lines)", at(20)},
		{"rebalance: extracted %d network(s) from shard %d for shard %d (%d lines)", at(40)},
		{"rebalance: shard %d %s", at(70)},
		{"rebalance: shard %d %s", at(90)},
		{"rebalance: verify gate passed (slice digest %s)", at(150)},
		{"rebalance: shard %d %s", at(160)}, // a drop, after the gate: not an absorb
		{"rebalance: done; new-topology digest %s degraded=%v", at(300)},
	}
	got, err := rebalanceSteps(stamps)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cluster.rebalance_discover_ms": 5, "cluster.rebalance_extract_ms": 35,
		"cluster.rebalance_absorb_ms": 50, "cluster.rebalance_verify_ms": 60,
		"cluster.rebalance_cutover_ms": 150,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := rebalanceSteps(stamps[:4]); err == nil {
		t.Error("a log that stops early must be an error")
	}
}

func TestCorpusIsSeededAndFixedShape(t *testing.T) {
	shape := corpusShape{aps: 12, perAP: 4}
	a, err := buildCorpus(7, shape)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(7, shape)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildCorpus(8, shape)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*corpus{a, b, c} {
		if len(x.templates) != 12 || x.clients != 48 {
			t.Fatalf("corpus has %d APs and %d clients, want 12 and 48", len(x.templates), x.clients)
		}
	}
	same := string(a.report(3, 5).Marshal()) == string(b.report(3, 5).Marshal())
	if !same {
		t.Error("the same seed gave different reports")
	}
	if string(a.report(3, 5).Marshal()) == string(c.report(3, 5).Marshal()) {
		t.Error("different seeds gave the same report")
	}
	if string(a.report(3, 5).Marshal()) == string(a.report(3, 6).Marshal()) {
		t.Error("counters did not drift between ticks")
	}
	// Feeds are disjoint and cover every AP.
	seen := make(map[string]bool)
	for _, f := range a.split(3) {
		for j := 0; j < f.hi-f.lo; j++ {
			s := f.at(j).Serial
			if seen[s] {
				t.Errorf("serial %s fronted by two feeds", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != 12 {
		t.Errorf("feeds cover %d serials, want 12", len(seen))
	}
}

// TestQuickSmoke runs every workload at a few per cent of its size
// against real merakid processes, oracles on, untraced and traced, so
// the benchmark cannot rot; and checks the metric lists against
// BENCHMARK.json both ways.
func TestQuickSmoke(t *testing.T) {
	e, err := newEnv(1, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	bf, err := loadBenchmarkFile(e.root)
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, d := range bf.PerLayer {
		declared[d.Name] = true
	}
	produced := make(map[string]bool)
	for _, w := range workloads {
		res, err := w.measure(e, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: attempted=%d failed=%d", w.name, res.attempted, res.failed)
		}
		vals, err := pick(bf.EndToEnd, res.metrics, false)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name, v := range vals {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v)
			}
		}
		traced, err := w.measure(e, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if traced.digest != res.digest {
			t.Errorf("%s: output differs traced (%s) and untraced (%s)", w.name, traced.digest, res.digest)
		}
		for name := range traced.metrics {
			produced[name] = true
		}
		if _, err := os.Stat(e.out + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	e2e := make(map[string]bool)
	for _, d := range bf.EndToEnd {
		e2e[d.Name] = true
	}
	for name := range produced {
		if !declared[name] && !e2e[name] {
			t.Errorf("per-layer metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	// The smoke run's half second of paced load has too few samples to
	// support a p99.9.
	produced["driver.ack_latency_p999_ms"] = true
	for name := range declared {
		if !produced[name] {
			t.Errorf("per-layer metric %s is declared in BENCHMARK.json but no workload measures it", name)
		}
	}
	// No merakid may outlive its workload.
	children.Lock()
	n := len(children.m)
	children.Unlock()
	if n != 0 {
		t.Errorf("%d child processes still running after the workloads returned", n)
	}
	if names := strings.Join(workloadNames(), ","); names != "harvest-drain,paced-ops,cluster-ops,study" {
		t.Errorf("workloads = %s", names)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
