// Command merakid is the backend collector daemon: it accepts device
// tunnels on -listen, polls each connected device for queued reports on
// a fixed cadence, ingests them into the datastore, and answers
// line-based queries on -query (see cmd/apstat). The store can be
// snapshotted to disk with -snapshot on shutdown (SIGINT) or via the
// "save" query. The query commands are defined once, in commands.go,
// and listed in docs/COMMANDS.md; an
// unrecognized command gets an "ERR unknown command" line back (every
// error line starts with "ERR"). The status response includes the
// harvest health counters (reconnects, MAC failures, corrupt frames,
// timeouts, device queue drops, dedup hits), and "metrics" dumps the
// full observability registry — harvest, poll-pool, and store counters
// — in one round trip. With -debug ADDR the same registry is served as
// expvar-style JSON at /debug/vars and as Prometheus text at
// /debug/metrics, next to the net/http/pprof handlers (see the README
// operator guide); the debug server carries read/write timeouts so a
// stalled scraper cannot wedge shutdown. All tunnel I/O runs under the
// -timeout deadline so a stalled or silent peer can never pin a
// goroutine.
//
// Observability history and health (DESIGN.md §12): every
// -series-every the daemon samples its registry into fixed-capacity
// time-series rings — counters as per-second rates, gauges raw,
// histograms as per-tick count/sum/p50/p95/p99 — queryable with
// "series <metric> [n]" and served as JSON at /debug/series. On the
// same tick the default health rule set (harvest degradation, WAL
// degraded latch, dedup spikes, harvest silence; -health-for /
// -health-for-ok hysteresis) judges that history: firing alerts
// surface in "status" and "alerts", increment health.* metrics, and
// dump the flight recorder on first firing. On a coordinator (-peers),
// /debug/federate scatter-gathers every shard's Prometheus text and
// serves the merged fleet view with shard="N" labels, and the "watch"
// query answers the one-line per-shard summary merakireport -watch
// renders.
//
// A fleet of merakids can shard the network universe (DESIGN.md §11):
// -shard I -shards N places this daemon in an N-shard cluster where
// agents route each network to its shard by the deterministic cluster
// map, and -peers lists every shard's query address so the "fanout"
// query scatter-gathers across the cluster — "fanout status" returns
// every shard's status, "fanout digest" the merged cluster digest
// (identical to a single daemon's digest for the same reports), with
// graceful partial results when a shard is down. The "snapshot" query
// serves this daemon's store as base64 lines for the router to merge.
// The cluster grows live (DESIGN.md §13): the "rebalance" query (or
// merakireport -rebalance) migrates each moved network — part on the
// source so acks are refused and agents queue, extract, absorb on the
// destination under a dedup token (WAL-logged on durable shards),
// digest-verify, then cut over — and -map-epoch stamps the topology
// generation into status. Each shard keeps its own -wal-dir; see
// OPERATIONS.md for topologies and runbooks.
//
// With -wal-dir the daemon is crash-consistent (DESIGN.md §9): every
// harvested report's wire bytes reach a write-ahead log before the
// poller acks the device, checkpoints are written atomically every
// -checkpoint interval (and on shutdown and the "checkpoint" query),
// and boot recovers the latest valid checkpoint plus a WAL replay —
// falling back one checkpoint generation on corruption and truncating
// a torn WAL tail. SIGKILL at any instant loses no acked report and
// double-counts none; kill -9 it and watch (see the README
// walkthrough, and cmd/merakid's crash harness for the proof). If the
// WAL write path fails, the daemon degrades to read-only — polls stop
// acking so devices queue — and says so in status, /debug/vars, and
// the health counters, instead of crashing or silently acking into a
// black hole. The "digest" query returns a canonical SHA-256 of the
// full store state, which is how the crash harness compares a
// recovered daemon against a never-crashed control.
//
// Every ingested report's trace spans land in a bounded flight
// recorder (-trace-buf events, sampled at -trace-sample); "trace
// <id>" and "trace last" render a trace's span chain, and the recorder
// dumps itself as JSON to stderr on SIGQUIT, on crash-report ingestion,
// or when the harvest health degrades (rate-limited to one dump per 30
// seconds). -trace-load replays a dump written by an offline run
// (merakisim -trace-out) so its traces are queryable here.
package main

import (
	"bufio"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/obs"
	"wlanscale/internal/obs/health"
	"wlanscale/internal/obs/series"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/queryproto"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7771", "device tunnel listen address")
	query := flag.String("query", "127.0.0.1:7772", "query listen address")
	keyHex := flag.String("key", strings.Repeat("42", 32), "64-hex-char pre-shared tunnel key")
	pollEvery := flag.Duration("poll", 2*time.Second, "poll cadence per device")
	batch := flag.Int("batch", 64, "max reports per poll")
	wire := flag.String("wire", "v2", "max harvest wire version to negotiate: v1 (per-report frames) or v2 (delta-coded batches)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-frame tunnel I/O deadline (handshake and polls)")
	snapshot := flag.String("snapshot", "", "snapshot file written on shutdown")
	walDir := flag.String("wal-dir", "", "durability directory for the write-ahead log and checkpoints (empty = volatile store)")
	walFsync := flag.String("wal-fsync", "interval", "WAL fsync policy: always, interval, or off")
	walFsyncEvery := flag.Duration("wal-fsync-interval", 100*time.Millisecond, "flush window for -wal-fsync interval")
	walSegment := flag.Int64("wal-segment", 4<<20, "WAL segment size in bytes before rotation")
	checkpointEvery := flag.Duration("checkpoint", time.Minute, "checkpoint cadence (0 = only on shutdown and the checkpoint query)")
	shard := flag.Int("shard", 0, "this daemon's shard index in a sharded cluster (0-based; see -shards)")
	shards := flag.Int("shards", 1, "total shard count of the cluster this daemon belongs to (1 = single-daemon)")
	mapEpoch := flag.Int("map-epoch", 0, "shard-map epoch this daemon belongs to; bump on every topology change so rebalance tokens and status lines identify which map a shard is serving")
	peers := flag.String("peers", "", "comma-separated query addresses of every shard, indexed by shard ID; enables the scatter-gather fanout query (empty = standalone)")
	debug := flag.String("debug", "", "debug HTTP listen address serving /debug/vars, /debug/metrics, /debug/series, /debug/federate and /debug/pprof (empty = off)")
	seriesEvery := flag.Duration("series-every", 15*time.Second, "time-series sampling cadence for the metrics history rings (0 = no history, which also disables health rules)")
	seriesCap := flag.Int("series-cap", series.DefaultCap, "ring capacity per metric of the time-series store, in ticks")
	healthOn := flag.Bool("health", true, "evaluate the default health rule set on every series tick (requires -series-every > 0)")
	healthFor := flag.Int("health-for", 3, "consecutive breaching ticks before a health rule fires")
	healthForOK := flag.Int("health-for-ok", 3, "consecutive clear ticks before a firing health rule resolves")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of trace IDs the flight recorder keeps (0 disables tracing)")
	traceBuf := flag.Int("trace-buf", 4096, "flight-recorder capacity in span events (rounded up to a power of two)")
	traceLoad := flag.String("trace-load", "", "flight-recorder dump (JSON) to preload, making offline traces queryable")
	flag.Parse()

	key, err := parseKey(*keyHex)
	if err != nil {
		log.Fatalf("merakid: %v", err)
	}
	wireVer, err := telemetry.ParseWire(*wire)
	if err != nil {
		log.Fatalf("merakid: %v", err)
	}
	d := newDaemon(key, *pollEvery, *batch, *timeout, *traceSample, *traceBuf)
	d.wire = wireVer
	if *shards < 1 || *shard < 0 || *shard >= *shards {
		log.Fatalf("merakid: -shard %d out of range for -shards %d", *shard, *shards)
	}
	d.shardID, d.shards = *shard, *shards
	d.mapEpoch = *mapEpoch
	if *peers != "" {
		addrs := strings.Split(*peers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		if len(addrs) != *shards {
			log.Fatalf("merakid: -peers lists %d addresses, -shards says %d", len(addrs), *shards)
		}
		d.router = &cluster.Router{Shards: addrs}
		d.router.EnableObs(d.obs)
		log.Printf("merakid: shard %d/%d, fanout over %d peers", *shard, *shards, len(addrs))
	}

	if *walDir != "" {
		policy, err := wal.ParsePolicy(*walFsync)
		if err != nil {
			log.Fatalf("merakid: %v", err)
		}
		stats, err := d.attachDurable(*walDir, backend.DurableOptions{
			WAL: wal.Options{SegmentBytes: *walSegment, Policy: policy, Interval: *walFsyncEvery},
		})
		if err != nil {
			log.Fatalf("merakid: durable store: %v", err)
		}
		log.Printf("merakid: durable store at %s recovered: %s", *walDir, stats)
		if *checkpointEvery > 0 {
			go d.checkpointLoop(*checkpointEvery, nil)
		}
	}

	if *seriesEvery > 0 {
		d.attachSeries(*seriesCap, *healthFor, *healthForOK, *healthOn)
		go d.seriesLoop(*seriesEvery, nil)
	}

	if *traceLoad != "" {
		f, err := os.Open(*traceLoad)
		if err != nil {
			log.Fatalf("merakid: %v", err)
		}
		dump, err := trace.LoadDump(f)
		f.Close()
		if err != nil {
			log.Fatalf("merakid: %v", err)
		}
		d.trec.Load(dump)
		log.Printf("merakid: loaded %d span events (%d traces) from %s",
			len(dump.Events), len(d.trec.TraceIDs()), *traceLoad)
	}

	var dbgSrv *http.Server
	if *debug != "" {
		dbgLn, err := net.Listen("tcp", *debug)
		if err != nil {
			log.Fatalf("merakid: debug listen: %v", err)
		}
		log.Printf("merakid: debug HTTP on http://%s/debug/vars (pprof at /debug/pprof/, Prometheus at /debug/metrics)", dbgLn.Addr())
		dbgSrv = newDebugServer(debugMux(d))
		go func() {
			if err := dbgSrv.Serve(dbgLn); err != nil && err != http.ErrServerClosed {
				log.Printf("merakid: debug server: %v", err)
			}
		}()
	}

	devLn, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("merakid: listen: %v", err)
	}
	qLn, err := net.Listen("tcp", *query)
	if err != nil {
		log.Fatalf("merakid: query listen: %v", err)
	}
	log.Printf("merakid: devices on %s, queries on %s", devLn.Addr(), qLn.Addr())

	go d.acceptDevices(devLn)
	go d.acceptQueries(qLn)
	go d.watchHealth(30*time.Second, 10, nil)

	// SIGQUIT dumps the flight recorder to stderr and keeps running —
	// the operator's "what just happened" button on a live daemon.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			d.dump.Fire("sigquit")
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	devLn.Close()
	qLn.Close()
	if dbgSrv != nil {
		dbgSrv.Close()
	}
	if *snapshot != "" {
		if err := d.store.SaveFile(*snapshot); err != nil {
			log.Printf("merakid: snapshot: %v", err)
		} else {
			log.Printf("merakid: snapshot written to %s", *snapshot)
		}
	}
	if d.durable != nil {
		if err := d.durable.Checkpoint(); err != nil {
			log.Printf("merakid: shutdown checkpoint: %v", err)
		}
		if err := d.durable.Close(); err != nil {
			log.Printf("merakid: wal close: %v", err)
		}
	}
}

func parseKey(h string) ([]byte, error) {
	if len(h) != 64 {
		return nil, fmt.Errorf("key must be 64 hex chars, got %d", len(h))
	}
	key, err := hex.DecodeString(h)
	if err != nil {
		return nil, fmt.Errorf("bad key: %v", err)
	}
	return key, nil
}

type daemon struct {
	store *backend.Store
	// durable, when -wal-dir is set, wraps store with the write-ahead
	// log and checkpointing; store aliases durable.Store so every query
	// path reads the same data either way.
	durable   *backend.DurableStore
	key       []byte
	pollEvery time.Duration
	batch     int
	// wire is the maximum harvest wire version the daemon negotiates
	// per device session (-wire); devices that only announce v1 clamp
	// the session to v1 regardless.
	wire    byte
	timeout time.Duration
	health  *telemetry.HarvestHealth

	// shardID/shards place this daemon in a sharded cluster (-shard,
	// -shards); router, when -peers configured the cluster's query
	// addresses, answers the scatter-gather "fanout" query. A
	// standalone daemon is shard 0 of 1 with a nil router. mapEpoch
	// (-map-epoch) names the topology generation, folded into default
	// rebalance tokens so two epochs' migrations never share one.
	shardID, shards int
	mapEpoch        int
	router          *cluster.Router

	// obs is the daemon's metrics registry: harvest.* (health counters
	// and poll-loop counts), pool.* (connected-device pool), trace.*
	// (flight recorder), and store.* (ingest totals, client count,
	// snapshot timing).
	obs         *obs.Registry
	harvest     telemetry.HarvestMetrics
	disconnects *obs.Counter

	// trec buffers the last -trace-buf span events; tracer decides which
	// incoming trace IDs it records; dump writes the ring to stderr when
	// an anomaly trigger fires.
	trec   *trace.Recorder
	tracer *trace.Tracer
	dump   *trace.Trigger

	// series, when -series-every > 0, rings the registry's history;
	// alerts, when -health is also on, judges that history with the
	// default rule set (both answer queries and debug endpoints; both
	// are nil-safe no-ops when disabled).
	series *series.Recorder
	alerts *health.Engine

	// cmds is the query command table (commands.go), built once.
	cmds []queryproto.Command

	mu       sync.Mutex
	devices  map[string]bool
	seenEver map[string]bool
}

// newDaemon wires a daemon and its observability registry together:
// the store's counters, the harvest health block, the poll-loop
// counters, the device-pool gauges, and the trace flight recorder all
// publish into one registry, which the "metrics" query and the -debug
// listener serve.
func newDaemon(key []byte, pollEvery time.Duration, batch int, timeout time.Duration, traceSample float64, traceBuf int) *daemon {
	d := &daemon{
		store:     backend.NewStore(),
		key:       key,
		pollEvery: pollEvery,
		batch:     batch,
		wire:      telemetry.WireV2,
		timeout:   timeout,
		health:    &telemetry.HarvestHealth{},
		obs:       obs.NewRegistry(),
		trec:      trace.NewRecorder(traceBuf),
	}
	// The daemon never mints trace IDs — they arrive stamped on reports
	// — so the tracer seed is immaterial; only the sampling threshold
	// matters here.
	d.tracer = trace.New(d.trec, 1, traceSample)
	d.trec.RegisterMetrics(d.obs)
	d.dump = &trace.Trigger{Rec: d.trec, W: os.Stderr, Fires: d.obs.Counter("trace.dumps")}
	d.store.EnableObs(d.obs)
	d.store.EnableTrace(d.tracer)
	telemetry.RegisterHealth(d.obs, d.health)
	d.harvest = telemetry.NewHarvestMetrics(d.obs)
	d.disconnects = d.obs.Counter("pool.disconnects")
	d.obs.RegisterFunc("pool.devices", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return int64(len(d.devices))
	})
	d.obs.RegisterFunc("pool.devices_ever", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return int64(len(d.seenEver))
	})
	// The standard process-level fleet signals: uptime, goroutines,
	// heap in use, GC pause p99.
	obs.RegisterProcessMetrics(d.obs, time.Now())
	d.cmds = d.commands()
	return d
}

// attachSeries wires the time-series recorder onto the daemon's
// registry and, when healthOn, the default health rule set over it,
// with first-fire transitions triggering a flight-recorder dump. Must
// run before seriesLoop starts.
func (d *daemon) attachSeries(capacity, forTicks, forOK int, healthOn bool) {
	d.series = series.NewRecorder(d.obs, series.Options{Cap: capacity})
	if healthOn {
		d.alerts = health.NewEngine(d.series, health.DefaultRules(forTicks, forOK))
		d.alerts.EnableObs(d.obs)
		d.alerts.OnFire = func(a health.Alert) {
			d.dump.Fire("alert " + a.Rule.Name + " fired")
		}
	}
}

// seriesLoop samples the registry into the history rings and evaluates
// the health rules on a fixed cadence. stop is for tests; the daemon
// runs it for the life of the process.
func (d *daemon) seriesLoop(every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			d.series.Sample(now)
			d.alerts.Eval(now)
		}
	}
}

// attachDurable swaps the daemon's volatile store for a recovered
// durable one. Must run before the daemon starts serving: observability
// and tracing re-attach to the recovered store, and the harvest path
// switches to WAL-before-ack ingestion (serveDevice checks d.durable).
func (d *daemon) attachDurable(dir string, o backend.DurableOptions) (backend.RecoveryStats, error) {
	ds, stats, err := backend.OpenDurable(dir, o)
	if err != nil {
		return stats, err
	}
	d.durable = ds
	d.store = ds.Store
	ds.EnableDurableObs(d.obs)
	ds.Store.EnableTrace(d.tracer)
	return stats, nil
}

// checkpointLoop checkpoints on a fixed cadence. stop is for tests;
// the daemon runs it for the life of the process.
func (d *daemon) checkpointLoop(every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if err := d.durable.Checkpoint(); err != nil {
			log.Printf("merakid: checkpoint: %v", err)
		}
	}
}

// debugMux builds the -debug HTTP handler: the metrics registry as one
// expvar-style JSON object at /debug/vars and as Prometheus text at
// /debug/metrics, the time-series history as JSON at /debug/series
// (?metric=NAME&n=POINTS to narrow), the cluster-merged shard-labeled
// Prometheus view at /debug/federate (coordinator daemons only, i.e.
// -peers configured), and the standard pprof handlers at /debug/pprof/
// (profile, heap, goroutine, trace, ...) for profiling a busy harvest
// without restarting the daemon.
func debugMux(d *daemon) *http.ServeMux {
	reg := d.obs
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/debug/series", func(w http.ResponseWriter, r *http.Request) {
		if d.series == nil {
			http.Error(w, "series recording disabled (-series-every 0)", http.StatusNotFound)
			return
		}
		n := 60
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := d.series.WriteJSON(w, r.URL.Query().Get("metric"), n); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
		}
	})
	mux.HandleFunc("/debug/federate", func(w http.ResponseWriter, r *http.Request) {
		if d.router == nil {
			http.Error(w, "no cluster peers configured (-peers)", http.StatusNotFound)
			return
		}
		text, replies := d.router.FanoutMetrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, text)
		// A trailing comment makes partial scrapes self-describing.
		fmt.Fprintf(w, "# federation shards=%d up=%d down=%v\n",
			len(replies), len(replies)-cluster.NumDown(replies), cluster.DownShards(replies))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// newDebugServer wraps the debug handler in an http.Server with
// conservative I/O deadlines. The -debug listener is an operator
// surface, not a device surface, but the same slow-loris rule applies:
// a scraper that stalls mid-request must cost a timeout, not a pinned
// connection that keeps Shutdown waiting forever
// (TestDebugServerShutdownWithStalledClient pins this).
func newDebugServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// pprof profile captures default to 30 s of sampling, so the
		// write deadline must comfortably exceed that.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
}

// watchHealth fires a flight-recorder dump when the harvest path
// degrades: threshold or more new hard errors (MAC failures, corrupt
// frames, timeouts) observed within one interval. stop is for tests;
// the daemon runs it for the life of the process.
func (d *daemon) watchHealth(every time.Duration, threshold int, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	var lastErrs int
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		s := d.health.Snapshot()
		errs := s.MACFailures + s.CorruptFrames + s.Timeouts
		if errs-lastErrs >= threshold {
			d.dump.Fire(fmt.Sprintf("harvest-degraded +%d errors in %v", errs-lastErrs, every))
		}
		lastErrs = errs
	}
}

func (d *daemon) acceptDevices(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go d.serveDevice(conn)
	}
}

func (d *daemon) serveDevice(conn net.Conn) {
	// The handshake deadline drops slow-loris clients — a connection
	// that sends nothing costs one timeout, not a pinned goroutine.
	p, err := telemetry.AcceptPollerWithTimeout(conn, d.key, d.timeout)
	if err != nil {
		d.health.Observe(err)
		log.Printf("merakid: handshake from %s: %v", conn.RemoteAddr(), err)
		return
	}
	defer p.Close()
	p.Health = d.health
	p.Metrics = d.harvest
	p.Trace = d.tracer
	p.NegotiateWire(d.wire)
	// admit lands a polled batch before its ack. A parted network
	// refuses first — migration backpressure, not a durability failure —
	// so a mid-migration network's devices requeue in both modes. A
	// volatile daemon then ingests; a durable one runs walAppend
	// (WAL-before-ack: the batch is durable and in the store before the
	// ack goes out). On a WAL failure the poll errors without acking —
	// the device keeps its queue — and the daemon flags itself degraded
	// rather than crashing.
	admit := func(reports []*telemetry.Report, walAppend func() error) error {
		if err := d.partCheck(reports); err != nil {
			return err
		}
		if d.durable == nil {
			for _, r := range reports {
				d.store.Ingest(r)
			}
			return nil
		}
		if err := walAppend(); err != nil {
			d.health.AddWALFailure()
			d.health.SetDegraded(true)
			log.Printf("merakid: degraded (read-only): %v", err)
			return err
		}
		return nil
	}
	p.BeforeAck = func(reports []*telemetry.Report, raw [][]byte) error {
		return admit(reports, func() error { return d.durable.IngestBatch(reports, raw) })
	}
	// v2 sessions log each whole batch frame as one WAL record.
	p.BeforeAckFrame = func(reports []*telemetry.Report, payload []byte) error {
		return admit(reports, func() error { return d.durable.IngestBatchFrame(reports, payload) })
	}
	d.mu.Lock()
	if d.devices == nil {
		d.devices = make(map[string]bool)
		d.seenEver = make(map[string]bool)
	}
	if d.seenEver[p.Serial] {
		d.health.AddReconnect()
	}
	d.seenEver[p.Serial] = true
	d.devices[p.Serial] = true
	d.mu.Unlock()
	log.Printf("merakid: device %s connected", p.Serial)
	defer func() {
		d.mu.Lock()
		delete(d.devices, p.Serial)
		d.mu.Unlock()
		d.disconnects.Inc()
		log.Printf("merakid: device %s disconnected", p.Serial)
	}()
	ticker := time.NewTicker(d.pollEvery)
	defer ticker.Stop()
	for {
		reports, err := p.Poll(d.batch)
		if err != nil {
			return
		}
		for _, r := range reports {
			// A crash report is exactly the moment the recent span
			// history is worth keeping: dump the recorder before the
			// ring overwrites the lead-up.
			if len(r.Crashes) > 0 {
				d.dump.Fire("crash-report " + r.Serial)
			}
		}
		// Drain mode: a v2 batch carries the device's remaining queue
		// depth, and a backlogged device (reboot, long partition) is
		// polled again immediately instead of trickling out one batch
		// per tick — the backpressure leg of the adaptive batcher.
		if p.QueueDepth() > 0 {
			continue
		}
		<-ticker.C
	}
}

// acceptQueries serves the line protocol of internal/queryproto on
// every accepted connection, dispatching from the command table.
func (d *daemon) acceptQueries(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go queryproto.Serve(conn, d.cmds)
	}
}

// queryFanout answers "fanout <cmd>": scatter <cmd> across every
// configured shard (-peers) and gather the answers. "fanout digest" is
// special-cased to the merged cluster digest — first line the digest
// hex, second line the health summary — because digests cannot be
// concatenated, only merged. Any other command returns each shard's
// response under a "[shard N addr]" header; a dead shard contributes
// an ERR line instead of sinking the whole query, so operators get
// partial answers during an outage rather than none.
func (d *daemon) queryFanout(w *bufio.Writer, args, _ []string) error {
	if d.router == nil {
		return errNoPeers
	}
	if args[0] == "fanout" {
		return errors.New("fanout does not nest")
	}
	if args[0] == "digest" {
		dig, err := d.router.MergedDigest()
		if err != nil {
			return fmt.Errorf("%v (down: %v)", err, dig.Down)
		}
		fmt.Fprintln(w, dig.Digest)
		fmt.Fprintf(w, "shards=%d up=%d down=%v degraded=%t\n",
			dig.Shards, dig.Shards-len(dig.Down), dig.Down, dig.Degraded)
		return nil
	}
	for _, rep := range d.router.Fanout(strings.Join(args, " ")) {
		fmt.Fprintf(w, "[shard %d %s]\n", rep.Shard, rep.Addr)
		if rep.Err != nil {
			fmt.Fprintf(w, "ERR shard down: %v\n", rep.Err)
			continue
		}
		for _, ln := range rep.Lines {
			fmt.Fprintln(w, ln)
		}
	}
	return nil
}

// errNoPeers answers the cluster commands on a standalone daemon.
var errNoPeers = errors.New("no cluster peers configured (-peers)")

// querySeries answers "series" (the recorded metric names, one per
// line) and "series <metric> [n]" (the metric's last n points, default
// 10, oldest first; counters render rates, histograms append
// count/sum/p50/p95/p99).
func (d *daemon) querySeries(w *bufio.Writer, args, _ []string) error {
	if d.series == nil {
		return errors.New("series recording disabled (-series-every 0)")
	}
	if len(args) == 0 {
		for _, n := range d.series.Names() {
			fmt.Fprintln(w, n)
		}
		return nil
	}
	n := 10
	if len(args) > 1 {
		v, err := strconv.Atoi(args[1])
		if err != nil || v <= 0 {
			return fmt.Errorf("bad point count %q", args[1])
		}
		n = v
	}
	return d.series.WriteText(w, args[0], n)
}

// queryWatch answers "watch": one machine-readable key=value line of
// the per-shard dashboard signals merakireport -watch renders — device
// pool, ingest totals and rate, WAL flush latency, degraded latch, and
// the currently firing alerts.
func (d *daemon) queryWatch(w *bufio.Writer, _, _ []string) error {
	ing, dup := d.store.Stats()
	d.mu.Lock()
	nDev := len(d.devices)
	d.mu.Unlock()
	rate := seriesRate(d.series, "store.ingests")
	var p99 int64
	if pts := d.series.Last("wal.fsync_us", 1); len(pts) > 0 {
		p99 = pts[0].P99
	}
	degraded := d.durable != nil && d.durable.Degraded()
	var names []string
	for _, a := range d.alerts.Firing() {
		names = append(names, a.Rule.Name+"["+a.Rule.Severity.String()+"]")
	}
	fmt.Fprintf(w, "shard=%d/%d devices=%d ingested=%d dupes=%d rate=%.1f wal_p99_us=%d degraded=%t firing=%s\n",
		d.shardID, d.shards, nDev, ing, dup, rate, p99, degraded, joinOrDash(names))
	return nil
}

// seriesRate derives a per-second rate from the last two points of a
// cumulative metric's series. store.ingests is a func gauge over a
// cumulative total, so its points are raw readings, not pre-derived
// rates.
func seriesRate(rec *series.Recorder, name string) float64 {
	pts := rec.Last(name, 2)
	if len(pts) < 2 {
		return 0
	}
	dt := float64(pts[1].T-pts[0].T) / 1000
	if dt <= 0 {
		return 0
	}
	return (pts[1].V - pts[0].V) / dt
}

// joinOrDash renders a name list for key=value lines: comma-joined, or
// "-" when empty so the field never vanishes.
func joinOrDash(names []string) string {
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, ",")
}

// queryTrace answers "trace <id>" and "trace last": the span chain of
// one harvested report, one line per span in pipeline order, indented
// by depth so the parent links read as a tree. Durations and start
// offsets are microseconds; retries, fault-injection profile, and
// errors appear only when set.
func (d *daemon) queryTrace(w *bufio.Writer, args, _ []string) error {
	var (
		id  trace.ID
		evs []trace.Event
	)
	if args[0] == "last" {
		var ok bool
		id, evs, ok = d.trec.LastTrace()
		if !ok {
			return errors.New("flight recorder is empty")
		}
	} else {
		v, err := trace.ParseID(args[0])
		if err != nil {
			return err
		}
		id = v
		evs = d.trec.Trace(id)
		if len(evs) == 0 {
			return fmt.Errorf("no such trace %s", id)
		}
	}
	fmt.Fprintf(w, "trace %s spans=%d\n", id, len(evs))
	for _, ev := range evs {
		depth := int(ev.Span) - 1
		if depth < 0 {
			depth = 0
		}
		fmt.Fprintf(w, "%s%s dur_us=%d start_us=%d", strings.Repeat("  ", depth), ev.Stage, ev.DurUS, ev.StartUS)
		if ev.Serial != "" {
			fmt.Fprintf(w, " serial=%s", ev.Serial)
		}
		if ev.Seq != 0 {
			fmt.Fprintf(w, " seq=%d", ev.Seq)
		}
		if ev.Retries > 0 {
			fmt.Fprintf(w, " retries=%d", ev.Retries)
		}
		if ev.Fault != "" {
			fmt.Fprintf(w, " fault=%q", ev.Fault)
		}
		if ev.Err != "" {
			fmt.Fprintf(w, " err=%q", ev.Err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
