package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/faultnet"
	"wlanscale/internal/obs"
	"wlanscale/internal/queryproto"
)

// serveTable answers every connection ln accepts with queryproto.Serve
// over table. It stops when ln closes.
func serveTable(ln net.Listener, table []queryproto.Command) {
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go queryproto.Serve(conn, table)
		}
	}()
}

// serveStore runs a minimal shard query server over ln: the subset of
// merakid's commands the router and the rebalance coordinator speak
// (status, digest, snapshot, the migration commands), backed by a bare
// in-memory store.
func serveStore(ln net.Listener, shard int, s *backend.Store) {
	type run = func(w *bufio.Writer, args, payload []string) error
	// withIDs parses operand `at` as the network ID list first.
	withIDs := func(at int, fn func(w *bufio.Writer, args []string, ids []uint64, payload []string) error) run {
		return func(w *bufio.Writer, args, payload []string) error {
			ids, err := ParseIDList(args[at])
			if err != nil {
				return err
			}
			return fn(w, args, ids, payload)
		}
	}
	serveTable(ln, []queryproto.Command{
		{Name: "status", Run: func(w *bufio.Writer, _, _ []string) error {
			ing, dup := s.Stats()
			fmt.Fprintf(w, "shard %d\n", shard)
			fmt.Fprintf(w, "ingested=%d duplicates=%d clients=%d\n", ing, dup, s.NumClients())
			return nil
		}},
		{Name: "digest", Run: func(w *bufio.Writer, _, _ []string) error {
			fmt.Fprintln(w, s.Digest())
			return nil
		}},
		{Name: "snapshot", Run: func(w *bufio.Writer, _, _ []string) error {
			return WriteSnapshotLines(w, s)
		}},
		{Name: "networks", Run: func(w *bufio.Writer, _, _ []string) error {
			for _, id := range s.Networks() {
				fmt.Fprintf(w, "%d\n", id)
			}
			return nil
		}},
		{Name: "digests", Usage: "[IDS]", Run: func(w *bufio.Writer, args, _ []string) error {
			return WriteDigestLines(w, s, args)
		}},
		{Name: "extract", Usage: "IDS", MinArgs: 1, Run: func(w *bufio.Writer, args, _ []string) error {
			return WriteExtractLines(w, s, args[0])
		}},
		{Name: "part", Usage: "IDS", MinArgs: 1, Run: withIDs(0, func(w *bufio.Writer, _ []string, ids []uint64, _ []string) error {
			s.Part(ids)
			fmt.Fprintf(w, "parted n=%d\n", len(ids))
			return nil
		})},
		{Name: "unpart", Usage: "IDS", MinArgs: 1, Run: withIDs(0, func(w *bufio.Writer, _ []string, ids []uint64, _ []string) error {
			s.Unpart(ids)
			fmt.Fprintf(w, "unparted n=%d\n", len(ids))
			return nil
		})},
		{Name: "drop", Usage: "TOKEN IDS", MinArgs: 2, Run: withIDs(1, func(w *bufio.Writer, args []string, ids []uint64, _ []string) error {
			nets, entries := s.Drop(args[0], ids)
			fmt.Fprintf(w, "dropped networks=%d entries=%d\n", nets, entries)
			return nil
		})},
		{Name: "absorb", Usage: "TOKEN IDS", MinArgs: 2, Payload: true, Run: withIDs(1, func(w *bufio.Writer, args []string, ids []uint64, payload []string) error {
			raw, err := DecodeSnapshotLines(payload)
			if err != nil {
				return err
			}
			applied, err := s.Absorb(args[0], ids, raw)
			switch {
			case err != nil:
				return err
			case !applied:
				fmt.Fprintf(w, "already token=%s\n", args[0])
			default:
				fmt.Fprintf(w, "absorbed token=%s networks=%d\n", args[0], len(ids))
			}
			return nil
		})},
	})
}

// serveShards serves each store on a loopback listener and returns the
// router plus the listeners (close one to take its shard down).
func serveShards(t testing.TB, stores []*backend.Store) (*Router, []net.Listener) {
	t.Helper()
	lns := make([]net.Listener, len(stores))
	addrs := make([]string, len(stores))
	for i, s := range stores {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
		serveStore(ln, i, s)
	}
	t.Cleanup(func() {
		for _, ln := range lns {
			ln.Close()
		}
	})
	return &Router{Shards: addrs, Timeout: 5 * time.Second}, lns
}

func TestFanoutDigest(t *testing.T) {
	stores := shardStores(4, clusterReports(1, 6))
	r, _ := serveShards(t, stores)
	replies := r.Fanout("digest")
	if len(replies) != 4 {
		t.Fatalf("got %d replies", len(replies))
	}
	for i, rep := range replies {
		if rep.Err != nil {
			t.Fatalf("shard %d: %v", i, rep.Err)
		}
		if rep.Shard != i {
			t.Fatalf("reply %d carries shard %d", i, rep.Shard)
		}
		if len(rep.Lines) != 1 || rep.Lines[0] != stores[i].Digest() {
			t.Fatalf("shard %d digest reply %q, want its store digest", i, rep.Lines)
		}
		if rep.Attempts != 1 {
			t.Fatalf("healthy shard %d took %d attempts", i, rep.Attempts)
		}
	}
	if NumDown(replies) != 0 || DownShards(replies) != nil {
		t.Fatalf("healthy fanout reports down shards: %v", DownShards(replies))
	}
}

func TestFanoutErrLineIsNotAnError(t *testing.T) {
	r, _ := serveShards(t, shardStores(2, nil))
	replies := r.Fanout("no-such-command")
	for _, rep := range replies {
		if rep.Err != nil {
			t.Fatalf("shard %d: transport error for ERR-line reply: %v", rep.Shard, rep.Err)
		}
		if len(rep.Lines) != 1 || !strings.HasPrefix(rep.Lines[0], "ERR") {
			t.Fatalf("shard %d: want single ERR line, got %q", rep.Shard, rep.Lines)
		}
	}
}

// TestFanoutRetrySucceeds pins the jittered retry path: a shard whose
// faultnet plan refuses exactly the first connection answers on the
// second attempt, and the reply records both attempts.
func TestFanoutRetrySucceeds(t *testing.T) {
	s := backend.NewStore()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fln := faultnet.Wrap(ln, faultnet.Plan{Seed: 7, Refuse: []faultnet.Window{{From: 0, To: 1}}})
	serveStore(fln, 0, s)
	r := &Router{
		Shards:      []string{ln.Addr().String()},
		Timeout:     2 * time.Second,
		Retries:     2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
	reg := obs.NewRegistry()
	r.EnableObs(reg)
	replies := r.Fanout("digest")
	if replies[0].Err != nil {
		t.Fatalf("retry did not recover: %v", replies[0].Err)
	}
	if replies[0].Attempts < 2 {
		t.Fatalf("expected >=2 attempts, got %d", replies[0].Attempts)
	}
	if got := reg.Counter("cluster.retries").Value(); got < 1 {
		t.Fatalf("cluster.retries = %d, want >= 1", got)
	}
	if got := reg.Counter(obs.Indexed("cluster.shard", 0, "errors")).Value(); got < 1 {
		t.Fatalf("per-shard error counter = %d, want >= 1", got)
	}
}

// TestScatterGatherPartialResults is the degradation proof the issue
// asks for: with one shard's listener in a permanent faultnet outage
// mid-cluster, a fanout and a merged digest still return the remaining
// shards' data, plus an explicit degraded marker naming the casualty —
// never an all-or-nothing failure.
func TestScatterGatherPartialResults(t *testing.T) {
	reports := clusterReports(3, 8)
	stores := shardStores(4, reports)
	lns := make([]net.Listener, 4)
	addrs := make([]string, 4)
	for i, s := range stores {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		if i == 2 {
			// Shard 2 is down: every accepted connection is refused by
			// the fault plan, which the dialer sees as connect-then-drop.
			fln := faultnet.Wrap(ln, faultnet.Plan{Seed: 11, Refuse: []faultnet.Window{{From: 0, To: 1 << 30}}})
			serveStore(fln, i, s)
		} else {
			serveStore(ln, i, s)
		}
		lns[i] = ln
	}
	r := &Router{
		Shards:      addrs,
		Timeout:     time.Second,
		Retries:     1,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	}
	reg := obs.NewRegistry()
	r.EnableObs(reg)

	replies := r.Fanout("digest")
	if replies[2].Err == nil {
		t.Fatal("outaged shard 2 reported success")
	}
	for _, i := range []int{0, 1, 3} {
		if replies[i].Err != nil {
			t.Fatalf("live shard %d failed: %v", i, replies[i].Err)
		}
	}
	if down := DownShards(replies); len(down) != 1 || down[0] != 2 {
		t.Fatalf("DownShards = %v, want [2]", down)
	}

	dig, err := r.MergedDigest()
	if err != nil {
		t.Fatalf("partial merge should succeed: %v", err)
	}
	if !dig.Degraded {
		t.Fatal("merged digest with a down shard not flagged degraded")
	}
	if len(dig.Down) != 1 || dig.Down[0] != 2 {
		t.Fatalf("Down = %v, want [2]", dig.Down)
	}
	// The partial digest must equal exactly the surviving shards'
	// merged contents: nothing lost from live shards, nothing invented
	// for the dead one.
	want := backend.NewStore()
	for _, i := range []int{0, 1, 3} {
		mergeInto(t, want, stores[i])
	}
	if dig.Digest != want.Digest() {
		t.Fatalf("degraded digest %s != surviving shards' merge %s", dig.Digest, want.Digest())
	}
	if got := reg.Counter("cluster.degraded").Value(); got < 1 {
		t.Fatalf("cluster.degraded = %d, want >= 1", got)
	}
}

func TestMergedDigestAllDown(t *testing.T) {
	// Addresses from closed listeners: every shard refuses outright.
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	r := &Router{Shards: addrs, Timeout: 500 * time.Millisecond, Retries: -1}
	dig, err := r.MergedDigest()
	if err == nil {
		t.Fatal("all-down cluster produced a digest")
	}
	if !dig.Degraded || len(dig.Down) != 2 {
		t.Fatalf("all-down Digest = %+v, want degraded with 2 down", dig)
	}
}

// mergeInto folds src into dst via the snapshot round-trip the router
// uses, so the test exercises the same path as production.
func mergeInto(t *testing.T, dst, src *backend.Store) {
	t.Helper()
	var b strings.Builder
	if err := WriteSnapshotLines(&b, src); err != nil {
		t.Fatal(err)
	}
	if err := mergeSnapshotLines(dst, strings.Fields(b.String())); err != nil {
		t.Fatal(err)
	}
}
