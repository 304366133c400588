// Command crashcheck is the kill-and-recover smoke gate (`make
// crash-smoke`): it builds merakid, harvests a small agent fleet into
// a WAL-backed store, SIGKILLs the daemon mid-harvest, restarts it
// over the same -wal-dir, waits for the fleet to drain, and compares
// the daemon's "digest" query against a never-crashed in-process
// control store. A mismatch — an acked report lost to the crash, or
// one double-counted by replay — fails the build. The seed for the
// kill moment comes from -seed (default 1) so a failing run can be
// replayed exactly; -cycles kills more than once per run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/queryproto"
	"wlanscale/internal/rng"
)

var fleet = fleettest.Fleet{Networks: 3, APs: 1, Reports: 120}

func run(seed uint64, cycles int) error {
	tmp, err := os.MkdirTemp("", "crashcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	defer fleettest.Cleanup()

	bin, err := fleettest.Build("merakid")
	if err != nil {
		return err
	}
	addrs, err := fleettest.Ports(2)
	if err != nil {
		return err
	}
	listen, query := addrs[0], addrs[1]

	agents := fleet.Agents()
	fleet.Enqueue(agents, 0, fleet.Reports)
	d, err := fleettest.Start(bin, listen, query, filepath.Join(tmp, "wal"))
	if err != nil {
		return err
	}
	defer d.Kill()
	stop := make(chan struct{})
	defer close(stop)
	fleettest.Run(agents, []string{listen}, cluster.NewMap(1), stop)

	killRNG := rng.New(seed).Split("crashcheck-kill")
	for c := 0; c < cycles; c++ {
		delay := time.Duration(30+killRNG.IntN(370)) * time.Millisecond
		time.Sleep(delay)
		fmt.Fprintf(os.Stderr, "crashcheck: cycle %d: SIGKILL after %v\n", c+1, delay)
		if err := d.Restart(); err != nil {
			return err
		}
	}
	if err := fleettest.Drain(agents, time.Now().Add(60*time.Second)); err != nil {
		return err
	}

	got, err := queryproto.Do(query, 5*time.Second, "digest")
	if err != nil {
		return err
	}
	if want := fleet.ControlDigest(); len(got) != 1 || got[0] != want {
		status, _ := queryproto.Do(query, 5*time.Second, "status")
		return fmt.Errorf("digest mismatch after crash recovery\n got %s\nwant %s\nstatus: %s", got, want, status)
	}
	return nil
}

func main() {
	seed := flag.Uint64("seed", 1, "kill-moment seed (replay a failure exactly)")
	cycles := flag.Int("cycles", 2, "kill/restart cycles per run")
	flag.Parse()
	if err := run(*seed, *cycles); err != nil {
		fmt.Fprintf(os.Stderr, "crashcheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("crashcheck: PASS (seed=%d cycles=%d): post-crash digest matches the no-crash control\n", *seed, *cycles)
}
