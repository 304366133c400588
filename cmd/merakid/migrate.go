// Migration queries: the daemon side of live shard rebalancing
// (DESIGN.md §13). The cluster.Rebalance coordinator drives these —
// "networks" for discovery, "part"/"unpart" to freeze a moved slice,
// "extract" to export it, "absorb" to ingest it under a dedup token,
// "drop" to cut it over — and "rebalance" runs the whole coordinator
// from any shard that has -peers configured. On a durable daemon every
// state change here is WAL-logged before it applies, so a SIGKILL
// mid-migration recovers to exactly the acknowledged step.

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/telemetry"
)

// queryNetworks answers "networks": the network IDs this shard holds,
// one decimal ID per line — the rebalance coordinator's discovery set.
func (d *daemon) queryNetworks(w *bufio.Writer, _, _ []string) error {
	for _, id := range d.store.Networks(backend.NetworkOfSerial) {
		fmt.Fprintf(w, "%d\n", id)
	}
	return nil
}

// queryExtract answers "extract IDS": a consistent snapshot of just
// those networks (a capture filtered by network, encoded with no lock
// held), in the same base64-line encoding as "snapshot" (chunked, so an
// arbitrarily large slice never exceeds the line-protocol width).
func (d *daemon) queryExtract(w *bufio.Writer, args, _ []string) error {
	ids, err := cluster.ParseIDList(args[0])
	if err != nil {
		return err
	}
	slice := d.store.ExtractNetworks(backend.IDSet(ids), backend.NetworkOfSerial)
	return cluster.WriteSnapshotLines(w, slice)
}

// queryPart answers "part IDS" (part true) and "unpart IDS": mark or
// clear the networks as mid-migration, refusing ingestion so devices
// requeue.
func (d *daemon) queryPart(part bool) func(w *bufio.Writer, args, _ []string) error {
	return func(w *bufio.Writer, args, _ []string) error {
		ids, err := cluster.ParseIDList(args[0])
		if err != nil {
			return err
		}
		switch {
		case d.durable != nil && part:
			err = d.durable.PartNetworks(ids)
		case d.durable != nil:
			err = d.durable.UnpartNetworks(ids)
		case part:
			d.store.Part(ids)
		default:
			d.store.Unpart(ids)
		}
		if err != nil {
			return err
		}
		if part {
			fmt.Fprintf(w, "parted n=%d\n", len(ids))
		} else {
			fmt.Fprintf(w, "unparted n=%d\n", len(ids))
		}
		return nil
	}
}

// queryDrop answers "drop TOKEN IDS": delete the networks and forget
// TOKEN's absorb mark — the cutover on a source, the rollback on a
// destination.
func (d *daemon) queryDrop(w *bufio.Writer, args, _ []string) error {
	ids, err := cluster.ParseIDList(args[1])
	if err != nil {
		return err
	}
	var nets, entries int
	if d.durable != nil {
		if nets, entries, err = d.durable.DropNetworks(args[0], ids); err != nil {
			return err
		}
	} else {
		nets, entries = d.store.Drop(args[0], ids, backend.NetworkOfSerial)
	}
	fmt.Fprintf(w, "dropped networks=%d entries=%d\n", nets, entries)
	return nil
}

// queryAbsorb answers "absorb TOKEN IDS" plus the slice as base64
// payload lines, which queryproto.Serve has already collected whole —
// a truncated or oversized payload never reaches here. Absorption is
// token-deduplicated — re-pushing TOKEN answers "already" without
// touching the store — which is what makes the coordinator's blind
// retries and crash re-runs safe.
func (d *daemon) queryAbsorb(w *bufio.Writer, args, payload []string) error {
	token := args[0]
	ids, err := cluster.ParseIDList(args[1])
	if err != nil {
		return err
	}
	raw, err := cluster.DecodeSnapshotBytes(payload)
	if err != nil {
		return err
	}
	var applied bool
	if d.durable != nil {
		applied, err = d.durable.AbsorbSnapshot(token, ids, raw)
	} else {
		applied, err = d.store.Absorb(token, ids, bytes.NewReader(raw), backend.NetworkOfSerial)
	}
	if err != nil {
		return err
	}
	if !applied {
		fmt.Fprintf(w, "already token=%s\n", token)
		return nil
	}
	fmt.Fprintf(w, "absorbed token=%s networks=%d\n", token, len(ids))
	return nil
}

// queryRebalance answers "rebalance NEWADDRS [TOKEN]": run the full
// coordinator from this daemon, migrating from the -peers topology to
// the comma-separated NEWADDRS query addresses. Progress streams back
// as "# " lines; the final line is the machine-readable verdict
// ("rebalanced ..." or "ERR ..."). The default token is deterministic
// in the map epoch and the shard counts, so a crashed run re-run
// verbatim converges via absorb dedup instead of double-ingesting.
func (d *daemon) queryRebalance(w *bufio.Writer, args, _ []string) error {
	if d.router == nil {
		return errNoPeers
	}
	newAddrs := strings.Split(args[0], ",")
	for i := range newAddrs {
		newAddrs[i] = strings.TrimSpace(newAddrs[i])
	}
	token := fmt.Sprintf("epoch%d-%dto%d", d.mapEpoch, len(d.router.Shards), len(newAddrs))
	if len(args) > 1 {
		token = args[1]
	}
	o := cluster.RebalanceOptions{
		Token:   token,
		Timeout: d.timeout,
		Log: func(format string, args ...any) {
			fmt.Fprintf(w, "# "+format+"\n", args...)
			w.Flush()
		},
	}
	rep, err := cluster.Rebalance(d.router.Shards, newAddrs, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rebalanced token=%s moved=%d transfers=%d old=%d new=%d digest=%s degraded=%t\n",
		rep.Token, rep.MovedNetworks, len(rep.Transfers), rep.OldShards, rep.NewShards,
		rep.Full.Digest, rep.Full.Degraded)
	return nil
}

// partCheck refuses a poll batch that touches a parted (mid-migration)
// network, before any ack: the poll errors, the device keeps its
// queue, and the report lands at the network's new home once the agent
// re-routes. Composed before the WAL ingest on durable daemons — a
// part refusal is backpressure, not a durability failure, so it must
// not degrade the daemon.
func (d *daemon) partCheck(reports []*telemetry.Report) error {
	for _, r := range reports {
		if id, ok := backend.NetworkOfSerial(r.Serial); ok && d.store.IsParted(id) {
			return fmt.Errorf("network %d is mid-migration (parted); requeue", id)
		}
	}
	return nil
}
