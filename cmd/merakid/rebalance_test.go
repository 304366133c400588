package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/queryproto"
	"wlanscale/internal/telemetry"
)

// The rebalance harness: real merakid subprocesses prove the live
// migration end to end — a 2-shard WAL-backed cluster grows to 3
// shards mid-harvest via the daemon's own "rebalance" query, devices
// of parted networks requeue instead of losing data, and after the
// agents flip to the new topology the merged digest equals the
// single-store control. The kill arm SIGKILLs the destination between
// absorb and cutover and proves the WAL replays the slice and its
// dedup token.

// rebalanceFleet starts 2 old shards (-shards 2, -map-epoch 1) plus
// one destination (-shard 2/3, -map-epoch 2), each with its own WAL
// dir, and returns the listen/query address lists.
func rebalanceFleet(t *testing.T, bin string) (listens, queries []string, daemons []*fleettest.Daemon) {
	t.Helper()
	ports := reservePorts(t, 6)
	listens, queries = ports[:3], ports[3:]
	oldPeers := strings.Join(queries[:2], ",")
	newPeers := strings.Join(queries, ",")
	for i := 0; i < 2; i++ {
		daemons = append(daemons, spawn(t, bin, listens[i], queries[i], t.TempDir(),
			"-shard", strconv.Itoa(i), "-shards", "2", "-peers", oldPeers, "-map-epoch", "1"))
	}
	daemons = append(daemons, spawn(t, bin, listens[2], queries[2], t.TempDir(),
		"-shard", "2", "-shards", "3", "-peers", newPeers, "-map-epoch", "2"))
	return listens, queries, daemons
}

// movedNetworks splits the fleet's networks by whether the 2->3
// jump-map growth rehomes them.
func movedNetworks() (moved, kept []uint64) {
	oldMap, newMap := cluster.NewMap(2), cluster.NewMap(3)
	for _, id := range clusterFleet.NetworkIDs() {
		if oldMap.Shard(id) != newMap.Shard(id) {
			moved = append(moved, id)
		} else {
			kept = append(kept, id)
		}
	}
	return moved, kept
}

func newRebalanceAgents() []*telemetry.Agent {
	agents := clusterFleet.Agents()
	clusterFleet.Enqueue(agents, 0, clusterFleet.Reports)
	return agents
}

func idCSV(ids []uint64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatUint(id, 10)
	}
	return strings.Join(parts, ",")
}

// push sends a payload-carrying command (absorb) and returns the
// response lines.
func push(t *testing.T, addr, header string, payload []string) []string {
	t.Helper()
	lines, err := queryproto.Do(addr, 10*time.Second, header, payload...)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRebalanceMidHarvestDigest grows a live 2-shard cluster to 3
// mid-harvest through the daemon's "rebalance" query, then flips the
// moved networks' agents to the new topology — the OPERATIONS.md
// runbook, mechanized. The merged digest over the new topology must
// equal the single-store control: nothing lost to the migration,
// nothing double-counted, the post-flip tail ingested at the new home.
func TestRebalanceMidHarvestDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess rebalance harness; skipped in -short")
	}
	bin := buildMerakid(t)
	want := clusterFleet.ControlDigest()
	listens, queries, _ := rebalanceFleet(t, bin)
	agents := newRebalanceAgents()
	moved, kept := movedNetworks()
	if len(moved) == 0 || len(kept) == 0 {
		t.Fatalf("test fleet must both move and keep networks (moved=%v kept=%v)", moved, kept)
	}
	movedSet := make(map[uint64]bool)
	for _, id := range moved {
		movedSet[id] = true
	}

	// Harvest starts against the old topology.
	oldMap, newMap := cluster.NewMap(2), cluster.NewMap(3)
	stopAll := make(chan struct{})
	stopOldHome := make(chan struct{})
	defer close(stopAll)
	for _, a := range agents {
		stop := stopAll
		if movedSet[fleettest.NetID(a)] {
			stop = stopOldHome // these flip after the cutover
		}
		go a.RunWithReconnect(listens[oldMap.Shard(fleettest.NetID(a))], stop)
	}
	time.Sleep(80 * time.Millisecond) // mid-harvest

	// The one-command migration, run on shard 0. Its default token is
	// derived from -map-epoch and the shard counts.
	lines := query(t, queries[0], "rebalance "+strings.Join(queries, ","))
	if len(lines) == 0 {
		t.Fatal("rebalance query answered nothing")
	}
	verdict := lines[len(lines)-1]
	if !strings.HasPrefix(verdict, "rebalanced token=epoch1-2to3 ") {
		t.Fatalf("rebalance verdict = %q (full: %q)", verdict, lines)
	}
	if strings.Contains(verdict, " moved=0 ") {
		t.Fatalf("mid-harvest rebalance moved nothing: %q", verdict)
	}

	// Flip: moved networks' agents re-home to the new topology and
	// deliver their requeued tails there.
	close(stopOldHome)
	for _, a := range agents {
		if movedSet[fleettest.NetID(a)] {
			go a.RunWithReconnect(listens[newMap.Shard(fleettest.NetID(a))], stopAll)
		}
	}
	drainAgents(t, agents)

	r := &cluster.Router{Shards: queries, Timeout: 5 * time.Second}
	dig, err := r.MergedDigest()
	if err != nil {
		t.Fatalf("merged digest: %v", err)
	}
	if dig.Degraded || dig.Digest != want {
		t.Fatalf("rebalanced cluster digest\n got %s (degraded=%v)\nwant %s", dig.Digest, dig.Degraded, want)
	}

	// Moved networks are gone from the old shards and parted there, so
	// a straggler agent on the old map cannot resurrect them.
	for i := 0; i < 2; i++ {
		for _, ln := range query(t, queries[i], "networks") {
			id, err := strconv.ParseUint(ln, 10, 64)
			if err != nil {
				t.Fatalf("networks line %q", ln)
			}
			if movedSet[id] {
				t.Fatalf("moved network %d still listed on source shard %d", id, i)
			}
		}
	}
	status := strings.Join(query(t, queries[0], "status"), "\n")
	if !strings.Contains(status, "rebalance parted=") {
		t.Fatalf("source status does not show parted networks:\n%s", status)
	}

	// The runbook's convergence check: a re-run finds nothing to move.
	lines = query(t, queries[0], "rebalance "+strings.Join(queries, ","))
	verdict = lines[len(lines)-1]
	if !strings.Contains(verdict, " moved=0 ") {
		t.Fatalf("re-run verdict = %q, want moved=0", verdict)
	}
}

// TestRebalanceKillDuringMigration is the crash arm: a destination
// shard absorbs one source's slice, is SIGKILLed before the cutover,
// and recovers from its WAL with both the slice and the dedup token
// intact — re-pushing answers "already", and re-running the whole
// migration under the same token converges to the control digest.
func TestRebalanceKillDuringMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess rebalance harness; skipped in -short")
	}
	bin := buildMerakid(t)
	want := clusterFleet.ControlDigest()
	listens, queries, daemons := rebalanceFleet(t, bin)
	agents := newRebalanceAgents()
	moved, _ := movedNetworks()

	// Drain the whole fleet into the old topology first: the kill is
	// aimed at the migration machinery, not the harvest.
	oldMap := cluster.NewMap(2)
	stop := make(chan struct{})
	fleettest.Run(agents, listens, oldMap, stop)
	drainAgents(t, agents)
	close(stop)

	// Act as a coordinator that dies between absorb and cutover: part
	// and extract shard 0's moved slice, absorb it into the
	// destination under the token the later full run will reuse.
	var src0 []uint64
	for _, id := range moved {
		if oldMap.Shard(id) == 0 {
			src0 = append(src0, id)
		}
	}
	if len(src0) == 0 {
		t.Fatalf("no moved networks on shard 0 (moved=%v)", moved)
	}
	const token = "killtest"
	if lines := query(t, queries[0], "part "+idCSV(src0)); len(lines) != 1 || !strings.HasPrefix(lines[0], "parted") {
		t.Fatalf("part answered %q", lines)
	}
	slice := query(t, queries[0], "extract "+idCSV(src0))
	if len(slice) == 0 || strings.HasPrefix(slice[0], "ERR") {
		t.Fatalf("extract answered %q", slice)
	}
	header := fmt.Sprintf("absorb %s.s0d2 %s", token, idCSV(src0))
	if lines := push(t, queries[2], header, slice); len(lines) != 1 || !strings.HasPrefix(lines[0], "absorbed") {
		t.Fatalf("absorb answered %q", lines)
	}

	// SIGKILL the destination mid-migration and restart it over its
	// WAL. The absorbed slice was never checkpointed — recovery must
	// replay it, token and all.
	restart(t, daemons[2])

	if lines := push(t, queries[2], header, slice); len(lines) != 1 || !strings.HasPrefix(lines[0], "already") {
		t.Fatalf("post-recovery re-absorb answered %q, want already (WAL lost the token)", lines)
	}

	// The crashed coordinator's re-run, same token: pair s0d2 dedups,
	// pair s1d2 absorbs fresh, verify gates, sources cut over.
	lines := query(t, queries[0], fmt.Sprintf("rebalance %s %s", strings.Join(queries, ","), token))
	verdict := lines[len(lines)-1]
	if !strings.HasPrefix(verdict, "rebalanced token="+token+" ") {
		t.Fatalf("rebalance verdict = %q (full: %q)", verdict, lines)
	}

	r := &cluster.Router{Shards: queries, Timeout: 5 * time.Second}
	dig, err := r.MergedDigest()
	if err != nil {
		t.Fatalf("merged digest: %v", err)
	}
	if dig.Degraded || dig.Digest != want {
		t.Fatalf("post-kill rebalance digest\n got %s (degraded=%v)\nwant %s", dig.Digest, dig.Degraded, want)
	}
	status := strings.Join(query(t, queries[2], "status"), "\n")
	if !strings.Contains(status, "absorbed=2") {
		t.Fatalf("destination status after recovery:\n%s\nwant 2 absorb tokens", status)
	}
}
