package main

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"

	"wlanscale/internal/anomaly"
	"wlanscale/internal/cluster"
	"wlanscale/internal/queryproto"
)

// commands is the query port's command table: the single definition of
// every command's name, operands, arity, help text and handler.
// queryproto.Serve dispatches from it and TestCommandsDoc renders it to
// docs/COMMANDS.md, so a command added here is served and documented
// in one step.
func (d *daemon) commands() []queryproto.Command {
	return []queryproto.Command{
		{Name: "status", Run: d.queryStatus,
			Help: "Shard identity and map epoch (sharded daemons), migration state, device/ingest/client totals, the harvest health counters, WAL positions (durable daemons) and the firing alerts."},
		{Name: "clients", Run: d.queryClients,
			Help: "The number of client aggregates in the store."},
		{Name: "top-apps", Usage: "[N]", Run: d.queryTopApps,
			Help: "The N (default 10) applications with the most bytes, with byte and client counts; ties break by name."},
		{Name: "util", Run: d.queryUtil,
			Help: "Every stored radio utilization sample: serial, band, channel, busy and decodable fractions."},
		{Name: "crashes", Run: d.queryCrashes,
			Help: "Every stored crash record: serial, time, kind, firmware, PC and neighbor count."},
		{Name: "anomalies", Run: d.queryAnomalies,
			Help: "Reboot loops and neighbor-count outliers found by the anomaly detector over the store."},
		{Name: "metrics", Run: d.queryMetrics,
			Help: "The full observability registry as `name value` text."},
		{Name: "prom", Run: d.queryProm,
			Help: "The registry as Prometheus exposition text — the per-shard payload /debug/federate scatter-gathers."},
		{Name: "series", Usage: "[METRIC [N]]", Run: d.querySeries,
			Help: "Bare: the recorded metric names. With METRIC: its last N (default 10) points, oldest first; counters render rates, histograms append count/sum/p50/p95/p99."},
		{Name: "alerts", Run: d.queryAlerts,
			Help: "Every health rule with its state (ok, pending, firing)."},
		{Name: "watch", Run: d.queryWatch,
			Help: "One machine-readable key=value line of the per-shard dashboard signals merakireport -watch renders."},
		{Name: "digest", Run: d.queryDigest,
			Help: "The canonical SHA-256 of the full store state."},
		{Name: "checkpoint", Run: d.queryCheckpoint,
			Help: "Write a checkpoint now (durable daemons) and report its LSN."},
		{Name: "snapshot", Run: d.querySnapshot,
			Help: "The store's gob snapshot as base64 lines — what the scatter-gather router merges cluster-wide views from."},
		{Name: "fanout", Usage: "CMD [ARGS]", MinArgs: 1, Run: d.queryFanout,
			Help: "Scatter CMD across every -peers shard; each answer follows a `[shard N addr]` header and a dead shard contributes an ERR line. `fanout digest` answers the merged cluster digest and a health summary instead."},
		{Name: "networks", Run: d.queryNetworks,
			Help: "The network IDs this shard holds, one per line — the rebalance coordinator's discovery set."},
		{Name: "extract", Usage: "IDS", MinArgs: 1, Run: d.queryExtract,
			Help: "A consistent snapshot of just the comma-separated networks IDS, encoded like `snapshot`."},
		{Name: "part", Usage: "IDS", MinArgs: 1, Run: d.queryPart(true),
			Help: "Mark the networks as mid-migration: their reports are refused so devices requeue."},
		{Name: "unpart", Usage: "IDS", MinArgs: 1, Run: d.queryPart(false),
			Help: "Clear the mid-migration mark set by `part`."},
		{Name: "drop", Usage: "TOKEN IDS", MinArgs: 2, Run: d.queryDrop,
			Help: "Delete the networks and forget TOKEN's absorb mark — the cutover on a source, the rollback on a destination."},
		{Name: "absorb", Usage: "TOKEN IDS", MinArgs: 2, Payload: true, Run: d.queryAbsorb,
			Help: "Ingest the slice carried as payload lines (an `extract` reply) under the dedup token TOKEN; re-pushing TOKEN answers `already` without touching the store."},
		{Name: "rebalance", Usage: "PEERS [TOKEN]", MinArgs: 1, Run: d.queryRebalance,
			Help: "Run the live-rebalance coordinator from this daemon's -peers topology to the comma-separated query addresses PEERS. Progress streams as `# ` lines; the last line is the verdict."},
		{Name: "trace", Usage: "ID|last", MinArgs: 1, Run: d.queryTrace,
			Help: "The span chain of one harvested report, one line per span in pipeline order, indented by depth."},
		{Name: "save", Usage: "PATH", MinArgs: 1, Run: d.querySave,
			Help: "Write the store snapshot to PATH on the daemon's filesystem."},
		queryproto.Quit,
	}
}

func (d *daemon) queryStatus(w *bufio.Writer, _, _ []string) error {
	ing, dup := d.store.Stats()
	d.mu.Lock()
	nDev := len(d.devices)
	d.mu.Unlock()
	if d.shards > 1 {
		fmt.Fprintf(w, "shard %d/%d\n", d.shardID, d.shards)
	}
	if d.shards > 1 || d.mapEpoch > 0 {
		fmt.Fprintf(w, "map_epoch=%d\n", d.mapEpoch)
	}
	if parted, absorbed := len(d.store.PartedIDs()), d.store.AbsorbedCount(); parted > 0 || absorbed > 0 {
		fmt.Fprintf(w, "rebalance parted=%d absorbed=%d\n", parted, absorbed)
	}
	fmt.Fprintf(w, "devices=%d ingested=%d duplicates=%d clients=%d\n",
		nDev, ing, dup, d.store.NumClients())
	fmt.Fprintf(w, "%s dedup_hits=%d\n", d.health.Snapshot(), dup)
	if d.durable != nil {
		fmt.Fprintf(w, "wal next_lsn=%d checkpoint_lsn=%d segments=%d degraded=%t\n",
			d.durable.WAL().NextLSN(), d.durable.CheckpointLSN(),
			d.durable.WAL().Segments(), d.durable.Degraded())
	}
	if d.alerts != nil {
		firing := d.alerts.Firing()
		names := make([]string, 0, len(firing))
		for _, a := range firing {
			names = append(names, a.Rule.Name)
		}
		fmt.Fprintf(w, "alerts firing=%d %s\n", len(firing), joinOrDash(names))
	}
	return nil
}

func (d *daemon) queryClients(w *bufio.Writer, _, _ []string) error {
	fmt.Fprintf(w, "%d\n", d.store.NumClients())
	return nil
}

func (d *daemon) queryTopApps(w *bufio.Writer, args, _ []string) error {
	n := 10
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 {
			return fmt.Errorf("bad count %q", args[0])
		}
		n = v
	}
	rows := d.store.AppTotals()
	for _, row := range rows[:min(n, len(rows))] {
		fmt.Fprintf(w, "%s\t%d bytes\t%d clients\n", row.App, row.Bytes, row.Clients)
	}
	return nil
}

func (d *daemon) queryUtil(w *bufio.Writer, _, _ []string) error {
	for _, serial := range d.store.RadioSerials() {
		for _, s := range d.store.RadioSeries(serial) {
			fmt.Fprintf(w, "%s band=%s ch=%d busy=%.3f decodable=%.3f\n",
				serial, s.Band, s.Channel, s.Busy, s.Decodable)
		}
	}
	return nil
}

func (d *daemon) queryCrashes(w *bufio.Writer, _, _ []string) error {
	for _, serial := range d.store.CrashSerials() {
		for _, c := range d.store.Crashes(serial) {
			fmt.Fprintf(w, "%s t=%d kind=%d fw=%s pc=%#x neighbors=%d\n",
				serial, c.Timestamp, c.Kind, c.Firmware, c.PC, c.NeighborCount)
		}
	}
	return nil
}

func (d *daemon) queryAnomalies(w *bufio.Writer, _, _ []string) error {
	det := anomaly.NewDetector()
	det.FeedCrashes(d.store)
	det.FeedNeighborCounts(d.store)
	for _, serial := range det.RebootLoops(3) {
		fmt.Fprintf(w, "reboot-loop %s\n", serial)
	}
	for _, o := range det.NeighborOutliers(8) {
		fmt.Fprintf(w, "neighbor-outlier %s count=%d sigma=%.0f\n", o.Serial, o.Count, o.Sigma)
	}
	return nil
}

func (d *daemon) queryMetrics(w *bufio.Writer, _, _ []string) error {
	d.obs.WriteText(w)
	return nil
}

func (d *daemon) queryProm(w *bufio.Writer, _, _ []string) error {
	d.obs.WriteProm(w)
	return nil
}

func (d *daemon) queryAlerts(w *bufio.Writer, _, _ []string) error {
	if d.alerts == nil {
		return errors.New("health rules disabled (-health, -series-every)")
	}
	d.alerts.WriteText(w)
	return nil
}

func (d *daemon) queryDigest(w *bufio.Writer, _, _ []string) error {
	fmt.Fprintln(w, d.store.Digest())
	return nil
}

func (d *daemon) queryCheckpoint(w *bufio.Writer, _, _ []string) error {
	if d.durable == nil {
		return errors.New("not running durable (-wal-dir)")
	}
	if err := d.durable.Checkpoint(); err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpointed lsn=%d\n", d.durable.CheckpointLSN())
	return nil
}

func (d *daemon) querySnapshot(w *bufio.Writer, _, _ []string) error {
	return cluster.WriteSnapshotLines(w, d.store)
}

func (d *daemon) querySave(w *bufio.Writer, args, _ []string) error {
	if err := d.store.SaveFile(args[0]); err != nil {
		return err
	}
	fmt.Fprintln(w, "saved")
	return nil
}
