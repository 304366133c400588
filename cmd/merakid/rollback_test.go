package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
	"wlanscale/internal/queryproto"
	"wlanscale/internal/wal"
)

// The rollback proof: a 2→3 rebalance over three in-process durable
// daemons, with one fault injected into each exchange the coordinator
// makes, in turn. The faults sit in the daemons' command tables, so the
// coordinator under test is the real one talking to the real handlers,
// and every shard restarts from its WAL before the re-run.

var faultFleet = fleettest.Fleet{Networks: 10, APs: 2, Reports: 8}

// exchange names one coordinator→shard query: the shard, the command,
// and which occurrence of that command on that shard it is.
type exchange struct {
	shard int
	cmd   string
	nth   int
}

type fault int

const (
	noFault fault = iota
	// refuse answers ERR without running the handler.
	refuse
	// applyThenErr runs the handler, loses its reply and answers ERR —
	// what a shard that applied a command and then died mid-reply
	// looks like from the coordinator.
	applyThenErr
	// blackout refuses the exchange and every later one on every shard,
	// the rollback's included — what the coordinator dying looks like.
	blackout
)

func (f fault) String() string {
	return [...]string{"none", "refuse", "apply-then-ERR", "blackout"}[f]
}

var errFault = errors.New("injected fault")

// faultCluster is two old shards holding faultFleet under NewMap(2)
// plus one empty destination, each a daemon with its own WAL dir,
// serving queries on loopback.
type faultCluster struct {
	t       *testing.T
	dirs    []string
	daemons []*daemon
	lns     []net.Listener
	addrs   []string

	mu     sync.Mutex
	counts map[exchange]int // per (shard, cmd); nth unset
	seen   []exchange
	target exchange
	fault  fault
	fired  bool
	dark   bool
}

func newFaultCluster(t *testing.T, target exchange, f fault) *faultCluster {
	t.Helper()
	c := &faultCluster{t: t, dirs: []string{t.TempDir(), t.TempDir(), t.TempDir()},
		counts: make(map[exchange]int), target: target, fault: f}
	t.Cleanup(c.stop)
	c.boot(true)
	oldMap := cluster.NewMap(2)
	for _, id := range faultFleet.NetworkIDs() {
		for ap := 0; ap < faultFleet.APs; ap++ {
			reports := faultFleet.Stream(id, ap)
			for i, r := range reports {
				r.SeqNo = uint64(i + 1)
			}
			if err := c.daemons[oldMap.Shard(id)].durable.IngestBatch(reports, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// boot opens every shard's WAL dir in a fresh daemon and serves it on a
// fresh port; wrap routes its commands through the fault injector.
func (c *faultCluster) boot(wrap bool) {
	c.daemons, c.lns, c.addrs = nil, nil, nil
	for i, dir := range c.dirs {
		d := newDaemon(nil, time.Second, 64, time.Second, 0, 16)
		if _, err := d.attachDurable(dir, backend.DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff}}); err != nil {
			c.t.Fatal(err)
		}
		for j := range d.cmds {
			if wrap && d.cmds[j].Run != nil {
				c.wrap(i, &d.cmds[j])
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.t.Fatal(err)
		}
		go d.acceptQueries(ln)
		c.daemons, c.lns, c.addrs = append(c.daemons, d), append(c.lns, ln), append(c.addrs, ln.Addr().String())
	}
}

func (c *faultCluster) stop() {
	for i, d := range c.daemons {
		c.lns[i].Close()
		d.durable.Close()
	}
	c.daemons, c.lns = nil, nil
}

// restart stops every shard and recovers it from its WAL alone.
func (c *faultCluster) restart() {
	c.stop()
	c.boot(false)
}

func (c *faultCluster) wrap(shard int, cmd *queryproto.Command) {
	run, name := cmd.Run, cmd.Name
	cmd.Run = func(w *bufio.Writer, args, payload []string) error {
		c.mu.Lock()
		key := exchange{shard: shard, cmd: name}
		c.counts[key]++
		key.nth = c.counts[key]
		c.seen = append(c.seen, key)
		hit := c.fault != noFault && key == c.target
		c.fired = c.fired || hit
		c.dark = c.dark || hit && c.fault == blackout
		dark := c.dark
		c.mu.Unlock()
		switch {
		case dark || hit && c.fault == refuse:
			return errFault
		case hit:
			run(bufio.NewWriter(io.Discard), args, payload)
			return errFault
		}
		return run(w, args, payload)
	}
}

// recorded returns the exchanges the shards have served so far and
// whether the fault fired.
func (c *faultCluster) recorded() ([]exchange, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen, c.fired
}

func (c *faultCluster) rebalance() (*cluster.RebalanceReport, error) {
	return cluster.Rebalance(c.addrs[:2], c.addrs, cluster.RebalanceOptions{
		Token: "faulttest", Timeout: 5 * time.Second, Retries: -1,
	})
}

// TestRebalanceEveryFault enumerates the coordinator's exchanges from a
// clean 2→3 run and injects each fault kind into each one. A run that
// fails before the cutover under refuse or apply-then-ERR must leave
// every shard as it found it: same digest, nothing parted, no absorb
// token. Then, whatever the fault, every shard restarts from its WAL
// and a re-run under the same token must converge within two runs to
// the control digest, with every network only on its new-map home and
// no shard refusing a network it is home to.
func TestRebalanceEveryFault(t *testing.T) {
	clean := newFaultCluster(t, exchange{}, noFault)
	if _, err := clean.rebalance(); err != nil {
		t.Fatalf("clean rebalance: %v", err)
	}
	exchanges, _ := clean.recorded()
	if len(exchanges) == 0 {
		t.Fatal("clean rebalance made no exchanges")
	}
	t.Logf("%d exchanges: %v", len(exchanges), exchanges)
	want := faultFleet.ControlDigest()
	newMap := cluster.NewMap(3)

	for _, f := range []fault{refuse, applyThenErr, blackout} {
		for _, ex := range exchanges {
			t.Run(fmt.Sprintf("%v/shard%d-%s-%d", f, ex.shard, ex.cmd, ex.nth), func(t *testing.T) {
				c := newFaultCluster(t, ex, f)
				pre := make([]string, len(c.daemons))
				for i, d := range c.daemons {
					pre[i] = d.store.Digest()
				}
				rep, err := c.rebalance()
				if _, fired := c.recorded(); !fired {
					t.Fatal("the fault never fired")
				}
				if err != nil && rep == nil && f != blackout {
					for i, d := range c.daemons {
						if d.store.Digest() != pre[i] || len(d.store.PartedIDs()) > 0 || d.store.AbsorbedCount() > 0 {
							t.Fatalf("shard %d not rolled back (parted=%v tokens=%d) after: %v",
								i, d.store.PartedIDs(), d.store.AbsorbedCount(), err)
						}
					}
				}

				c.restart()
				for run := 1; ; run++ {
					rep, err := c.rebalance()
					if err != nil {
						t.Fatalf("re-run %d: %v", run, err)
					}
					if rep.MovedNetworks == 0 {
						break
					}
					if run == 2 {
						t.Fatalf("re-run %d still moved %d networks", run, rep.MovedNetworks)
					}
				}
				dig, err := (&cluster.Router{Shards: c.addrs, Timeout: 5 * time.Second}).MergedDigest()
				if err != nil || dig.Degraded || dig.Digest != want {
					t.Fatalf("converged digest %s (degraded=%v, %v), want %s", dig.Digest, dig.Degraded, err, want)
				}
				for i, d := range c.daemons {
					for _, id := range d.store.Networks(backend.NetworkOfSerial) {
						if newMap.Shard(id) != i {
							t.Fatalf("network %d on shard %d, home %d", id, i, newMap.Shard(id))
						}
					}
					for _, id := range d.store.PartedIDs() {
						if newMap.Shard(id) == i {
							t.Fatalf("shard %d has its home network %d parted", i, id)
						}
					}
				}
			})
		}
	}
}
