// Package fleettest is the one subprocess-fleet harness behind the
// smoke scripts (scripts/*check) and the cmd/merakid subprocess tests:
// build a cmd binary once, reserve ports, spawn / SIGKILL / restart a
// real merakid, load a deterministic agent fleet routed by the cluster
// map, wait for it to drain, and compute the single-store control
// digest the recovered or merged cluster must equal. Every function
// returns errors instead of taking a *testing.T so main packages and
// tests share it.
package fleettest

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

var (
	buildMu  sync.Mutex
	buildDir string
	built    = make(map[string]error)
)

// Build compiles wlanscale/cmd/<name> once per process and returns the
// binary's path; later calls reuse it. Cleanup removes the binaries.
func Build(name string) (string, error) {
	buildMu.Lock()
	defer buildMu.Unlock()
	if buildDir == "" {
		dir, err := os.MkdirTemp("", "fleettest-bin-*")
		if err != nil {
			return "", err
		}
		buildDir = dir
	}
	bin := filepath.Join(buildDir, name)
	err, done := built[name]
	if !done {
		if out, berr := exec.Command("go", "build", "-o", bin, "wlanscale/cmd/"+name).CombinedOutput(); berr != nil {
			err = fmt.Errorf("go build %s: %v\n%s", name, berr, out)
		}
		built[name] = err
	}
	return bin, err
}

// Cleanup removes everything Build compiled.
func Cleanup() {
	buildMu.Lock()
	defer buildMu.Unlock()
	if buildDir != "" {
		os.RemoveAll(buildDir)
		buildDir, built = "", make(map[string]error)
	}
}

// Ports reserves n distinct loopback TCP addresses and releases them
// just before returning; the tiny reuse race is absorbed by Start's
// retry.
func Ports(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// Daemon is one merakid subprocess.
type Daemon struct {
	Listen, Query string

	bin    string
	args   []string
	cmd    *exec.Cmd     // nil while not running
	exited chan struct{} // closed once cmd has been reaped
}

// Start launches merakid on a fast harness cadence (-poll 20ms -batch 8
// -timeout 2s, tracing off; WAL-backed with fsync off and 75 ms
// checkpoints when walDir is set) and waits for its query port to
// accept. extra flags come last, so they override the defaults. The
// daemon's log goes to stderr.
func Start(bin, listen, query, walDir string, extra ...string) (*Daemon, error) {
	args := []string{
		"-listen", listen, "-query", query,
		"-poll", "20ms", "-batch", "8", "-timeout", "2s", "-trace-sample", "0",
	}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir, "-wal-fsync", "off", "-checkpoint", "75ms")
	}
	d := &Daemon{Listen: listen, Query: query, bin: bin, args: append(args, extra...)}
	return d, d.Restart()
}

// Restart kills the daemon if it is running and starts it again with
// the same flags — over the same -wal-dir, which is the recovery under
// test. A daemon that loses the port-reuse race and exits, or never
// opens its query port, is retried.
func (d *Daemon) Restart() error {
	d.Kill()
	for attempt := 0; attempt < 3; attempt++ {
		cmd := exec.Command(d.bin, d.args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		exited := make(chan struct{})
		go func() {
			cmd.Wait()
			close(exited)
		}()
		d.cmd, d.exited = cmd, exited
		deadline := time.Now().Add(5 * time.Second)
		for alive := true; alive && time.Now().Before(deadline); {
			if conn, err := net.DialTimeout("tcp", d.Query, 200*time.Millisecond); err == nil {
				conn.Close()
				return nil
			}
			select {
			case <-exited:
				alive = false
			case <-time.After(10 * time.Millisecond):
			}
		}
		d.Kill()
	}
	return fmt.Errorf("merakid did not open query port %s", d.Query)
}

// Kill SIGKILLs the daemon and waits until it is reaped. Killing a dead
// or never-started daemon is a no-op.
func (d *Daemon) Kill() {
	if d == nil || d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.cmd = nil
}

// Key is merakid's default -key: 32 bytes of 0x42.
func Key() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = 0x42
	}
	return key
}

// Fleet describes a deterministic agent fleet: Networks networks (IDs
// 100, 101, …) of APs access points each, every AP with a stream of
// Reports reports. Serials and client MACs embed the network ID and AP
// index, so networks — and therefore shards — own disjoint serials and
// clients, and the stored aggregate is independent of how daemons
// interleaved polls across agents.
type Fleet struct {
	Networks, APs, Reports int
}

// NetworkIDs lists the fleet's network IDs.
func (f Fleet) NetworkIDs() []uint64 {
	ids := make([]uint64, f.Networks)
	for n := range ids {
		ids[n] = uint64(100 + n)
	}
	return ids
}

// serial names one AP the way backend.NetworkOfSerial reads back.
func serial(netID uint64, ap int) string {
	return fmt.Sprintf("Q2CL-%03d-%d", netID, ap)
}

// Stream builds one AP's report stream.
func (f Fleet) Stream(netID uint64, ap int) []*telemetry.Report {
	serial := serial(netID, ap)
	out := make([]*telemetry.Report, 0, f.Reports)
	for i := 0; i < f.Reports; i++ {
		out = append(out, &telemetry.Report{
			Serial:    serial,
			Timestamp: uint64(1700000000 + i),
			Clients: []telemetry.ClientRecord{{
				MAC:  dot11.MAC{0x02, 0xc7, byte(netID), byte(ap), byte(i >> 8), byte(i)},
				Band: dot11.Band5,
				Apps: []telemetry.AppUsageRecord{{
					App: "YouTube", UpBytes: uint64(i), DownBytes: uint64(i) * 11, Flows: 1,
				}},
			}},
		})
	}
	return out
}

// each calls fn for every (network, AP) of the fleet in agent order.
func (f Fleet) each(fn func(i int, netID uint64, ap int)) {
	for n, netID := range f.NetworkIDs() {
		for ap := 0; ap < f.APs; ap++ {
			fn(n*f.APs+ap, netID, ap)
		}
	}
}

// ControlDigest is the ground truth: every stream ingested into one
// in-process store with the seqnos Agent.Enqueue would stamp (1-based
// per agent).
func (f Fleet) ControlDigest() string {
	s := backend.NewStore()
	f.each(func(_ int, netID uint64, ap int) {
		for i, r := range f.Stream(netID, ap) {
			r.SeqNo = uint64(i + 1)
			s.Ingest(r)
		}
	})
	return s.Digest()
}

// Agents builds the fleet's agents, one per AP, with empty queues and
// the fast reconnect cadence the harness daemons expect. Wire versions
// alternate so both codecs cross every shard and every WAL holds both
// record shapes.
func (f Fleet) Agents() []*telemetry.Agent {
	agents := make([]*telemetry.Agent, f.Networks*f.APs)
	f.each(func(i int, netID uint64, ap int) {
		a := telemetry.NewAgent(serial(netID, ap), Key())
		if i%2 == 0 {
			a.Wire = telemetry.WireV2
		}
		a.Timeout = 2 * time.Second
		a.BackoffBase = 20 * time.Millisecond
		a.BackoffMax = 200 * time.Millisecond
		agents[i] = a
	})
	return agents
}

// Enqueue queues reports [from, to) of every AP's stream on its agent
// (agents as returned by Agents).
func (f Fleet) Enqueue(agents []*telemetry.Agent, from, to int) {
	f.each(func(i int, netID uint64, ap int) {
		for _, r := range f.Stream(netID, ap)[from:to] {
			agents[i].Enqueue(r)
		}
	})
}

// NetID is the network a fleet agent belongs to.
func NetID(a *telemetry.Agent) uint64 {
	id, _ := backend.NetworkOfSerial(a.Serial)
	return id
}

// Run starts every agent against its network's shard under m — the
// routing merakid and merakisim agree on — until stop closes. listens
// is indexed by shard ID.
func Run(agents []*telemetry.Agent, listens []string, m cluster.Map, stop <-chan struct{}) {
	for _, a := range agents {
		go a.RunWithReconnect(listens[m.Shard(NetID(a))], stop)
	}
}

// Drain waits until every agent's queue is empty — every report acked,
// which merakid only does after the WAL append and the store ingest.
func Drain(agents []*telemetry.Agent, deadline time.Time) error {
	for {
		left := 0
		for _, a := range agents {
			left += a.QueueLen()
		}
		if left == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not drain: %d reports still queued", left)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
