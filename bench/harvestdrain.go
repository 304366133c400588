package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// harvest-drain: backlog catch-up at saturation, the paper's "reconnect
// and drain the queue" case. One WAL-backed merakid on wire v2, a
// closed loop that keeps every agent's queue at least drainDepth deep,
// a fixed number of reports per round (fixed work, not fixed time, so
// memory, WAL bytes and replay work are the same on every commit), then
// SIGKILL and a full-WAL recovery. Per-report hot-path cost dominates:
// batch encode, AES-CTR+MAC, batch decode, one WAL record per frame,
// Store.Ingest. It is the only workload that reads the WAL back.
const (
	drainReports = 48_000 // per round, all agents together
	drainDepth   = 512
)

var drainCorpus = corpusShape{aps: 640, perAP: 8}

// daemonObservations reads what a running merakid says about itself —
// GC pause, from the metrics query's proc.* line — and the size of its
// WAL directory.
func daemonObservations(d *daemon, walDir string, into map[string]float64) error {
	lines, err := query(d.query, "metrics")
	if err != nil {
		return fmt.Errorf("metrics query: %w", err)
	}
	for _, ln := range lines {
		if v, ok := strings.CutPrefix(ln, "proc.gc_pause_p99_us "); ok {
			us, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("metrics query: bad line %q", ln)
			}
			into["merakid.gc_pause_p99_us"] = us
		}
	}
	n, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	into["merakid.wal_dir_bytes"] = float64(n)
	return nil
}

// checkIngested requires status to show exactly want reports ingested
// and no duplicate, and digest to equal the control's.
func checkIngested(d *daemon, want int, control string) error {
	lines, err := query(d.query, "status")
	if err != nil {
		return fmt.Errorf("status query: %w", err)
	}
	ing, err := statusField(lines, "ingested")
	if err != nil {
		return err
	}
	dup, err := statusField(lines, "duplicates")
	if err != nil {
		return err
	}
	if ing != want || dup != 0 {
		return fmt.Errorf("oracle: status shows ingested=%d duplicates=%d, want %d and 0", ing, dup, want)
	}
	return checkDigest(d, control)
}

func checkDigest(d *daemon, control string) error {
	lines, err := query(d.query, "digest")
	if err != nil {
		return fmt.Errorf("digest query: %w", err)
	}
	if len(lines) != 1 || lines[0] != control {
		return fmt.Errorf("oracle: daemon digest %v != control %s", lines, control)
	}
	return nil
}

func runHarvestDrain(e *env, traced bool) (*result, error) {
	shape := drainCorpus
	shape.aps = e.size(shape.aps, 16)
	perAgent := e.size(drainReports, 2000) / e.agents
	total := perAgent * e.agents

	// The control: the same reports into an in-process store.
	c, err := buildCorpus(e.seed, shape)
	if err != nil {
		return nil, err
	}
	control := backend.NewStore()
	ingestControl(control, c.split(e.agents), 0, perAgent, true)
	want := control.Digest()

	rounds, err := runRounds(e, traced, func(i int) (*round, error) {
		r := &round{layer: make(map[string]float64)}
		dir := filepath.Join(e.tmp, fmt.Sprintf("drain-%d", i))
		defer os.RemoveAll(dir)
		flags := []string{
			"-wal-dir", dir, "-wal-fsync", "interval", "-wire", "v2",
			"-batch", "64", "-poll", "5ms", "-checkpoint", "0",
		}

		t0 := time.Now()
		c, err := buildCorpus(e.seed, shape)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(e.merakid, e.logPath("harvest-drain-merakid"), flags...)
		if err != nil {
			return nil, err
		}
		defer func() { d.stop() }()
		fl, err := connectFleet(d, c.split(e.agents), telemetry.WireV2)
		if err != nil {
			return nil, err
		}
		r.setupS = time.Since(t0).Seconds()
		r.layer["merakid.boot_ms"] = d.bootS * 1000

		measured := time.Now()
		cpu0, err := cpuSeconds(d.pid())
		if err != nil {
			fl.close()
			return nil, err
		}
		window := 250 * time.Millisecond
		if e.quick {
			window = 10 * time.Millisecond
		}
		dr := fl.drain(perAgent, drainDepth, window, 60*time.Second)
		cpu1, err := cpuSeconds(d.pid())
		fl.close()
		if err != nil {
			return nil, err
		}
		r.workS = dr.elapsed.Seconds()
		r.cpuS = cpu1 - cpu0
		r.attempted = total
		r.failed = dr.unacked + fl.dropped()
		if r.failed > 0 {
			return nil, fmt.Errorf("%d of %d reports unacked or dropped", r.failed, total)
		}
		if err := checkIngested(d, total, want); err != nil {
			return nil, err
		}
		if r.rssMiB, err = peakRSSMiB(d.pid()); err != nil {
			return nil, err
		}
		if err := daemonObservations(d, dir, r.layer); err != nil {
			return nil, err
		}
		r.layer["merakid.cpu_s"] = cpu1
		r.layer["driver.ingest_reports_per_s"] = float64(total) / r.workS
		r.layer["driver.daemon_cpu_us_per_report"] = r.cpuS * 1e6 / float64(total)
		r.layer["driver.wire_bytes_per_report"] = float64(fl.wrote.Load()) / float64(total)
		if w := sortedCopy(dr.windowRates); len(w) > 0 {
			r.layer["driver.window_rate_min"] = w[0]
			r.layer["driver.window_rate_max"] = w[len(w)-1]
			r.layer["driver.window_rate_p50"] = median(w)
		}

		// SIGKILL after the last ack; the restarted daemon replays the
		// whole WAL (no checkpoint was ever written) and must answer
		// digest with the control's.
		tk := time.Now()
		d.stop()
		if d, err = startDaemon(e.merakid, e.logPath("harvest-drain-merakid"), flags...); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		if err := checkDigest(d, want); err != nil {
			return nil, fmt.Errorf("after recovery: %w", err)
		}
		rec := time.Since(tk)
		r.opsMS = []float64{float64(rec) / float64(time.Millisecond)}
		r.attempted++
		r.timedS = time.Since(measured).Seconds()
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	res := aggregate(rounds)
	if !traced {
		return res, nil
	}
	tr := newTracer(true)
	dir, err := harvestTraced(e, "harvest-drain", c, 0, telemetry.WireV2, tr, res.metrics)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Recovery over the replica's WAL: no checkpoint, so all of it replays.
	res.metrics["backend.recover_ms"], err = onceMS(func() error {
		id := tr.start("backend", "OpenDurable", -1, 0)
		defer tr.end(id)
		ds, stats, err := backend.OpenDurable(dir, backend.DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff}})
		if err != nil {
			return err
		}
		defer ds.Close()
		if ing, _ := ds.Stats(); ing != e.replicaBatches()*ledgerBatch || stats.BadRecords != 0 {
			return fmt.Errorf("recovery rebuilt %d of %d reports (%s)", ing, e.replicaBatches()*ledgerBatch, stats)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, finishTrace(e, "harvest-drain", tr, res.metrics)
}
