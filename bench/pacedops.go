package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// paced-ops: steady arrivals on the legacy wire with the control plane
// active. One WAL-backed merakid on wire v1, booted over a directory
// pre-built in set-up (so query cost is flat from the first second and
// boot takes the checkpoint-load path), an open loop at a fixed rate far
// below capacity, and digest, checkpoint and status queries on a fixed
// schedule. It uses the layers harvest-drain uses, differently:
// per-report v1 frames and per-report WAL records instead of batch
// frames, small polls instead of full ones, and store reads (the
// lock-everything digest and save) beside the writes. The tail of the
// ack latency here is the ingest stall those reads cause, which is why
// it repeats from run to run.
const (
	pacedRate     = 4000 // reports per second, all agents together
	pacedSeconds  = 3.5  // per round
	pacedPrebuilt = 30_000
)

// opSchedule is the control-plane activity during a paced round.
var opSchedule = []struct {
	cmd           string
	first, period time.Duration
}{
	{"status", 125 * time.Millisecond, 250 * time.Millisecond},
	{"digest", 500 * time.Millisecond, time.Second},
	{"checkpoint", time.Second, 2 * time.Second},
}

// prebuild writes a durable store holding reports [0, n) of every feed
// that keep accepts (all when nil) into dir, checkpointed, as set-up for
// a daemon that boots over it. The reports carry no sequence number:
// nothing harvested them.
func prebuild(dir string, feeds []*feed, n int, keep func(*telemetry.Report) bool) error {
	ds, _, err := backend.OpenDurable(dir, backend.DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff}})
	if err != nil {
		return fmt.Errorf("prebuild: %w", err)
	}
	batch := make([]*telemetry.Report, 0, 64)
	flush := func() error {
		err := ds.IngestBatch(batch, nil)
		batch = batch[:0]
		return err
	}
	for _, f := range feeds {
		for j := 0; j < n; j++ {
			if r := f.at(j); keep == nil || keep(r) {
				batch = append(batch, r)
			}
			if len(batch) == cap(batch) {
				if err := flush(); err != nil {
					ds.Close()
					return fmt.Errorf("prebuild: %w", err)
				}
			}
		}
	}
	if err := flush(); err != nil {
		ds.Close()
		return fmt.Errorf("prebuild: %w", err)
	}
	if err := ds.Checkpoint(); err != nil {
		ds.Close()
		return fmt.Errorf("prebuild: %w", err)
	}
	return ds.Close()
}

// scheduledOps issues opSchedule (its times divided by speedup, which
// is 1 outside the smoke test) against the daemon until stop closes, one
// goroutine per command so a slow digest does not delay the status
// probes, and returns each command's client-observed latencies in ms
// and the number of queries that failed.
func scheduledOps(addr string, start time.Time, speedup time.Duration, stop <-chan struct{}) (map[string][]float64, int) {
	var mu sync.Mutex
	lat := make(map[string][]float64)
	failed := 0
	var wg sync.WaitGroup
	for _, op := range opSchedule {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := start.Add(op.first / speedup); ; due = due.Add(op.period / speedup) {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(due)):
				}
				t0 := time.Now()
				_, err := query(addr, op.cmd)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				if err != nil {
					failed++
				} else {
					lat[op.cmd] = append(lat[op.cmd], ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, failed
}

func runPacedOps(e *env, traced bool) (*result, error) {
	shape := drainCorpus
	shape.aps = e.size(shape.aps, 16)
	pre := e.size(pacedPrebuilt, 1000) / e.agents
	seconds, speedup := pacedSeconds, time.Duration(1)
	if e.quick {
		seconds, speedup = 0.5, 8
	}
	perAgent := int(pacedRate*seconds) / e.agents
	total := perAgent * e.agents
	interval := time.Second * time.Duration(e.agents) / pacedRate

	c, err := buildCorpus(e.seed, shape)
	if err != nil {
		return nil, err
	}
	control := backend.NewStore()
	ingestControl(control, c.split(e.agents), 0, pre, false)
	ingestControl(control, c.split(e.agents), pre, pre+perAgent, true)
	want := control.Digest()

	rounds, err := runRounds(e, traced, func(i int) (*round, error) {
		r := &round{layer: make(map[string]float64)}
		dir := filepath.Join(e.tmp, fmt.Sprintf("paced-%d", i))
		defer os.RemoveAll(dir)

		t0 := time.Now()
		c, err := buildCorpus(e.seed, shape)
		if err != nil {
			return nil, err
		}
		feeds := c.split(e.agents)
		if err := prebuild(dir, feeds, pre, nil); err != nil {
			return nil, err
		}
		for _, f := range feeds {
			f.next = pre
		}
		d, err := startDaemon(e.merakid, e.logPath("paced-ops-merakid"),
			"-wal-dir", dir, "-wal-fsync", "interval", "-wire", "v1",
			"-batch", "64", "-poll", "1ms")
		if err != nil {
			return nil, err
		}
		defer d.stop()
		fl, err := connectFleet(d, feeds, telemetry.WireV1)
		if err != nil {
			return nil, err
		}
		defer fl.close()
		r.setupS = time.Since(t0).Seconds()
		r.layer["merakid.boot_ms"] = d.bootS * 1000

		measured := time.Now()
		cpu0, err := cpuSeconds(d.pid())
		if err != nil {
			return nil, err
		}
		stopOps := make(chan struct{})
		type opsOut struct {
			lat    map[string][]float64
			failed int
		}
		opsDone := make(chan opsOut, 1)
		opsStart := time.Now()
		go func() {
			lat, failed := scheduledOps(d.query, opsStart, speedup, stopOps)
			opsDone <- opsOut{lat, failed}
		}()
		pr := fl.paced(perAgent, interval, 30*time.Second)
		close(stopOps)
		ops := <-opsDone
		cpu1, err := cpuSeconds(d.pid())
		if err != nil {
			return nil, err
		}
		r.workS = pr.elapsed.Seconds()
		r.cpuS = cpu1 - cpu0
		r.opsMS = pr.latencyMS
		queries := 0
		for cmd, ms := range ops.lat {
			queries += len(ms)
			r.layer["merakid.query_"+cmd+"_p50_ms"] = median(ms)
		}
		r.attempted = total + queries + ops.failed
		r.failed = pr.unacked + fl.dropped() + ops.failed
		if r.failed > 0 {
			return nil, fmt.Errorf("%d reports unacked, %d dropped, %d queries failed", pr.unacked, fl.dropped(), ops.failed)
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
		r.timedS = time.Since(measured).Seconds()
		lat := sortedCopy(pr.latencyMS)
		r.layer["merakid.cpu_s"] = cpu1
		r.layer["driver.late_max_ms"] = float64(pr.lateMax) / float64(time.Millisecond)
		r.layer["driver.ack_latency_p90_ms"] = quantile(lat, 0.90)
		if supported(len(lat), 0.999) {
			r.layer["driver.ack_latency_p999_ms"] = quantile(lat, 0.999)
		}
		r.layer["driver.daemon_cpu_us_per_report"] = r.cpuS * 1e6 / float64(total)
		r.layer["driver.wire_bytes_per_report"] = float64(fl.wrote.Load()) / float64(total)
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
	dir, err := harvestTraced(e, "paced-ops", c, pre, telemetry.WireV1, tr, res.metrics)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(dir)
	// The control plane at this workload's store size: what the daemon
	// boots over, which is what the scheduled digest and checkpoint walk.
	feeds := c.split(e.agents)
	dir = filepath.Join(e.tmp, "paced-ledger")
	defer os.RemoveAll(dir)
	if err := prebuild(dir, feeds, pre, nil); err != nil {
		return nil, err
	}
	if err := controlLedger(tr, -1, buildStore(feeds, pre), dir, res.metrics); err != nil {
		return nil, err
	}
	return res, finishTrace(e, "paced-ops", tr, res.metrics)
}
