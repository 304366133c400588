// Command clustercheck is the sharded-deployment smoke gate (`make
// cluster-smoke`): it builds merakid, spawns a 4-shard cluster (each
// shard with its own WAL dir and -shard/-shards/-peers wiring),
// harvests a mixed-wire agent fleet routed by the shard map, waits for
// the fleet to drain, and then checks the cluster from both ends:
//
//   - the router's scatter-gather merge (the merakireport -cluster
//     path) must produce a digest identical to a single in-process
//     control store fed the same reports, and
//   - shard 0's own "fanout digest" query — the daemon-side
//     coordinator — must agree, undegraded.
//
// Any divergence means sharding changed what the cluster holds, and
// the build fails. -shards overrides the cluster width.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/queryproto"
)

var fleet = fleettest.Fleet{Networks: 6, APs: 2, Reports: 60}

func run(shards int) error {
	tmp, err := os.MkdirTemp("", "clustercheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	defer fleettest.Cleanup()

	bin, err := fleettest.Build("merakid")
	if err != nil {
		return err
	}
	ports, err := fleettest.Ports(2 * shards)
	if err != nil {
		return err
	}
	listens, queries := ports[:shards], ports[shards:]
	peers := strings.Join(queries, ",")
	for i := 0; i < shards; i++ {
		d, err := fleettest.Start(bin, listens[i], queries[i], filepath.Join(tmp, fmt.Sprintf("wal-%d", i)),
			"-shard", strconv.Itoa(i), "-shards", strconv.Itoa(shards), "-peers", peers)
		if err != nil {
			return err
		}
		defer d.Kill()
	}

	// The fleet: agents route to their network's shard via the same map
	// merakid and merakisim agree on, alternating wire versions so both
	// codecs cross every shard.
	agents := fleet.Agents()
	fleet.Enqueue(agents, 0, fleet.Reports)
	stop := make(chan struct{})
	defer close(stop)
	fleettest.Run(agents, listens, cluster.NewMap(shards), stop)
	if err := fleettest.Drain(agents, time.Now().Add(60*time.Second)); err != nil {
		return err
	}

	want := fleet.ControlDigest()

	r := &cluster.Router{Shards: queries, Timeout: 5 * time.Second}
	dig, err := r.MergedDigest()
	if err != nil {
		return fmt.Errorf("router merge: %v", err)
	}
	if dig.Degraded || len(dig.Down) != 0 {
		return fmt.Errorf("healthy cluster reported degraded: %+v", dig)
	}
	if dig.Digest != want {
		return fmt.Errorf("router digest mismatch\n got %s\nwant %s", dig.Digest, want)
	}

	lines, err := queryproto.Do(queries[0], 5*time.Second, "fanout digest")
	if err != nil {
		return err
	}
	if len(lines) < 2 || !strings.Contains(lines[1], "degraded=false") {
		return fmt.Errorf("fanout summary = %q, want degraded=false", lines)
	}
	if lines[0] != want {
		return fmt.Errorf("daemon-side fanout digest mismatch\n got %s\nwant %s", lines[0], want)
	}
	return nil
}

func main() {
	shards := flag.Int("shards", 4, "cluster width")
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "clustercheck: -shards must be >= 1")
		os.Exit(2)
	}
	if err := run(*shards); err != nil {
		fmt.Fprintf(os.Stderr, "clustercheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("clustercheck: PASS (shards=%d): merged cluster digest matches the single-daemon control\n", *shards)
}
