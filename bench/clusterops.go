package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/telemetry"
)

// cluster-ops: the control plane on a loaded cluster with the harvest
// path idle. Three merakids: shards 0 and 1 boot over directories
// pre-built in set-up and routed by cluster.NewMap(2), shard 2 is
// empty. Timed: merged digests over the two-shard topology, then one
// live rebalance 2→3. Dominated by Store.Save/gob, the base64
// snapshot-line transport, MergeSnapshot, ExtractNetworks/Absorb and
// Digest — so a hot-path change predicts no change here.
const (
	clusterTicks   = 20 // reports per AP in the pre-built shards
	clusterDigests = 4  // merged digests per round
)

// Client-heavy relative to its report count: the control plane's cost
// follows the number of client aggregates.
var clusterCorpus = corpusShape{aps: 1000, perAP: 8}

// logStamp is one RebalanceOptions.Log callback: the format string
// identifies the step, the time is its boundary.
type logStamp struct {
	format string
	at     time.Time
}

// rebalanceSteps turns the coordinator's progress lines into step
// durations in ms. The boundaries are: "discovering" (start), "moving"
// (discovery and planning done), the last "extracted" (part and extract
// done), the last per-shard line before "verify gate passed" (absorb
// done), "verify gate passed", and "done" (sources dropped, final merged
// digest taken).
func rebalanceSteps(stamps []logStamp) (map[string]float64, error) {
	var discovering, moving, extracted, absorbed, verified, done time.Time
	for _, s := range stamps {
		switch {
		case strings.HasPrefix(s.format, "rebalance: discovering"):
			discovering = s.at
		case strings.HasPrefix(s.format, "rebalance: moving"):
			moving = s.at
		case strings.HasPrefix(s.format, "rebalance: extracted"):
			extracted = s.at
		case strings.HasPrefix(s.format, "rebalance: shard") && verified.IsZero():
			absorbed = s.at
		case strings.HasPrefix(s.format, "rebalance: verify gate passed"):
			verified = s.at
		case strings.HasPrefix(s.format, "rebalance: done"):
			done = s.at
		}
	}
	bounds := []time.Time{discovering, moving, extracted, absorbed, verified, done}
	for i, b := range bounds {
		if b.IsZero() || (i > 0 && b.Before(bounds[i-1])) {
			return nil, fmt.Errorf("rebalance log: step boundary %d missing or out of order", i)
		}
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
	return map[string]float64{
		"cluster.rebalance_discover_ms": ms(discovering, moving),
		"cluster.rebalance_extract_ms":  ms(moving, extracted),
		"cluster.rebalance_absorb_ms":   ms(extracted, absorbed),
		"cluster.rebalance_verify_ms":   ms(absorbed, verified),
		"cluster.rebalance_cutover_ms":  ms(verified, done),
	}, nil
}

func runClusterOps(e *env, traced bool) (*result, error) {
	shape := clusterCorpus
	shape.aps = e.size(shape.aps, 24)
	digests := clusterDigests
	if e.quick {
		digests = 2
	}

	c, err := buildCorpus(e.seed, shape)
	if err != nil {
		return nil, err
	}
	perFeed := clusterTicks * len(c.templates)
	control := backend.NewStore()
	ingestControl(control, c.split(1), 0, perFeed, false)
	want := control.Digest()

	tr := newTracer(traced)
	rounds, err := runRounds(e, traced, func(i int) (*round, error) {
		r := &round{layer: make(map[string]float64)}
		base := filepath.Join(e.tmp, fmt.Sprintf("cluster-%d", i))
		defer os.RemoveAll(base)

		t0 := time.Now()
		c, err := buildCorpus(e.seed, shape)
		if err != nil {
			return nil, err
		}
		old := cluster.NewMap(2)
		var shards []*daemon
		defer func() {
			for _, d := range shards {
				d.stop()
			}
		}()
		for s := 0; s < 3; s++ {
			dir := filepath.Join(base, fmt.Sprintf("shard-%d", s))
			flags := []string{"-wal-dir", dir}
			if s < 2 {
				err = prebuild(dir, c.split(1), perFeed, func(r *telemetry.Report) bool {
					id, ok := backend.NetworkOfSerial(r.Serial)
					return ok && old.Shard(id) == s
				})
				if err != nil {
					return nil, err
				}
			} else {
				// Found while benchmarking (see README): an absorb record
				// larger than -wal-segment fails on an empty destination
				// log, so the empty shard gets one segment big enough.
				flags = append(flags, "-wal-segment", "268435456")
			}
			d, err := startDaemon(e.merakid, e.logPath(fmt.Sprintf("cluster-ops-merakid-%d", s)), flags...)
			if err != nil {
				return nil, err
			}
			shards = append(shards, d)
			r.layer["merakid.boot_ms"] = max(r.layer["merakid.boot_ms"], d.bootS*1000)
		}
		r.setupS = time.Since(t0).Seconds()
		old2 := []string{shards[0].query, shards[1].query}
		new3 := []string{shards[0].query, shards[1].query, shards[2].query}

		sumCPU := func() (float64, error) {
			total := 0.0
			for _, d := range shards {
				s, err := cpuSeconds(d.pid())
				if err != nil {
					return 0, err
				}
				total += s
			}
			return total, nil
		}
		cpu0, err := sumCPU()
		if err != nil {
			return nil, err
		}
		measured := time.Now()

		router := &cluster.Router{Shards: old2, Timeout: 60 * time.Second}
		for k := 0; k < digests; k++ {
			t := time.Now()
			id := tr.start("cluster", "Router.MergedDigest", -1, k)
			dig, err := router.MergedDigest()
			tr.end(id)
			r.opsMS = append(r.opsMS, float64(time.Since(t))/float64(time.Millisecond))
			r.attempted++
			if err != nil || dig.Degraded {
				return nil, fmt.Errorf("merged digest: degraded=%v err=%v", dig.Degraded, err)
			}
			if dig.Digest != want {
				return nil, fmt.Errorf("oracle: 2-shard merged digest %s != control %s", dig.Digest, want)
			}
		}

		var stamps []logStamp
		t := time.Now()
		id := tr.start("cluster", "Rebalance", -1, 0)
		rep, err := cluster.Rebalance(old2, new3, cluster.RebalanceOptions{
			Token: "bench", Timeout: 60 * time.Second,
			Log: func(format string, _ ...any) { stamps = append(stamps, logStamp{format, time.Now()}) },
		})
		tr.end(id)
		r.workS = time.Since(t).Seconds()
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("rebalance: %w", err)
		}
		if rep.MovedNetworks == 0 {
			return nil, fmt.Errorf("oracle: rebalance 2→3 moved no network")
		}
		if rep.Full.Degraded || rep.Full.Digest != want {
			return nil, fmt.Errorf("oracle: 3-shard merged digest %s (degraded=%v) != control %s", rep.Full.Digest, rep.Full.Degraded, want)
		}
		steps, err := rebalanceSteps(stamps)
		if err != nil {
			return nil, err
		}
		for k, v := range steps {
			r.layer[k] = v
		}
		r.layer["cluster.moved_networks"] = float64(rep.MovedNetworks)

		t = time.Now()
		id = tr.start("cluster", "Router.Fanout", -1, 0)
		replies := (&cluster.Router{Shards: new3, Timeout: 60 * time.Second}).Fanout("status")
		tr.end(id)
		r.layer["cluster.fanout_status_ms"] = float64(time.Since(t)) / float64(time.Millisecond)
		r.attempted++
		if n := cluster.NumDown(replies); n > 0 {
			return nil, fmt.Errorf("fanout status: %d shards down", n)
		}

		again, err := cluster.Rebalance(old2, new3, cluster.RebalanceOptions{Token: "bench-again", Timeout: 60 * time.Second})
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("second rebalance: %w", err)
		}
		if again.MovedNetworks != 0 {
			return nil, fmt.Errorf("oracle: second rebalance moved %d networks, want 0", again.MovedNetworks)
		}

		cpu1, err := sumCPU()
		if err != nil {
			return nil, err
		}
		r.cpuS = cpu1 - cpu0
		r.layer["merakid.cpu_s"] = cpu1
		r.timedS = time.Since(measured).Seconds()
		for s, d := range shards {
			mib, err := peakRSSMiB(d.pid())
			if err != nil {
				return nil, err
			}
			r.rssMiB += mib
			if s == 0 {
				if err := daemonObservations(d, filepath.Join(base, "shard-0"), r.layer); err != nil {
					return nil, err
				}
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	res := aggregate(rounds)
	if !traced {
		return res, nil
	}
	// The same control plane in-process, one exported call at a time, on
	// the whole cluster's store; and what that store holds on the heap.
	feeds := c.split(1)
	s := heapLedger(feeds, perFeed, res.metrics)
	dir := filepath.Join(e.tmp, "cluster-ledger")
	defer os.RemoveAll(dir)
	if err := prebuild(dir, feeds, perFeed, nil); err != nil {
		return nil, err
	}
	if err := controlLedger(tr, -1, s, dir, res.metrics); err != nil {
		return nil, err
	}
	return res, finishTrace(e, "cluster-ops", tr, res.metrics)
}
