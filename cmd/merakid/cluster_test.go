package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
)

// The cluster kill harness: four real merakid shards, each with its own
// WAL dir, harvest a mixed-wire fleet routed by the shard map. One
// shard is SIGKILLed mid-harvest and restarted over its WAL. After the
// fleet drains, the router's merged digest — and every shard's own
// "fanout digest" view — must equal a single in-process control
// store fed the same reports: sharding plus a crash changes nothing
// about what the cluster holds.

const clusterShards = 4

var clusterFleet = fleettest.Fleet{Networks: 6, APs: 2, Reports: 60}

func TestClusterKillRecoveryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster harness; skipped in -short")
	}
	bin := buildCmd(t, "merakid")
	want := clusterFleet.ControlDigest()

	ports := reservePorts(t, 2*clusterShards)
	listens, queries := ports[:clusterShards], ports[clusterShards:]
	peers := strings.Join(queries, ",")
	daemons := make([]*fleettest.Daemon, clusterShards)
	for i := range daemons {
		daemons[i] = spawn(t, bin, listens[i], queries[i], t.TempDir(),
			"-shard", strconv.Itoa(i), "-shards", strconv.Itoa(clusterShards), "-peers", peers)
	}

	// The fleet, routed by the same map merakisim uses: each agent's
	// address chain is exactly its network's shard. Wire versions
	// alternate so both codecs cross every shard's WAL.
	agents := clusterFleet.Agents()
	clusterFleet.Enqueue(agents, 0, clusterFleet.Reports)
	stop := make(chan struct{})
	defer close(stop)
	fleettest.Run(agents, listens, cluster.NewMap(clusterShards), stop)

	// SIGKILL one shard mid-harvest and restart it over its WAL; its
	// agents retry through the outage while the other shards keep
	// harvesting undisturbed.
	const victim = 1
	time.Sleep(80 * time.Millisecond)
	restart(t, daemons[victim])
	drainAgents(t, agents)

	// Arm one: the test-side router merges all four shards.
	r := &cluster.Router{Shards: queries, Timeout: 5 * time.Second}
	dig, err := r.MergedDigest()
	if err != nil {
		t.Fatalf("merged digest: %v", err)
	}
	if dig.Degraded || len(dig.Down) != 0 {
		t.Fatalf("recovered cluster still degraded: %+v", dig)
	}
	if dig.Digest != want {
		t.Fatalf("cluster digest after kill+recovery\n got %s\nwant %s", dig.Digest, want)
	}

	// Arm two: the daemons' own scatter-gather — every shard, the
	// recovered victim included, is a valid coordinator, and its
	// "fanout digest" must agree, undegraded.
	for i, q := range queries {
		lines := query(t, q, "fanout digest")
		if len(lines) < 2 {
			t.Fatalf("shard %d: fanout digest answered %q", i, lines)
		}
		if lines[0] != want {
			t.Fatalf("shard %d: daemon-side fanout digest = %s, want %s (status %q)", i, lines[0], want, lines[1])
		}
		if !strings.Contains(lines[1], "degraded=false") {
			t.Fatalf("shard %d: fanout summary = %q, want degraded=false", i, lines[1])
		}
	}

	// Every shard self-identifies in status; together they cover 0..3.
	seen := make(map[string]bool)
	for i := range queries {
		for _, ln := range query(t, queries[i], "status") {
			if strings.HasPrefix(ln, "shard ") {
				seen[ln] = true
			}
		}
	}
	for i := 0; i < clusterShards; i++ {
		if !seen[fmt.Sprintf("shard %d/%d", i, clusterShards)] {
			t.Fatalf("status lines %v missing shard %d", seen, i)
		}
	}
}
