package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/obs"
	"wlanscale/internal/queryproto"
)

// serveTruncating answers each of the first `drops` connections with n
// lines and then slams the connection shut without the blank
// terminator; later connections get proper service — the store's
// digest for any command. This is the failure the truncation bug hid:
// a reply cut off mid-stream used to come back as a short success.
// (What the client makes of one truncated exchange is pinned by
// queryproto's conformance test; this file pins the router's retry.)
func serveTruncating(ln net.Listener, s *backend.Store, drops int32, lines int) {
	var conns int32
	digest := func(w *bufio.Writer, _, _ []string) error {
		fmt.Fprintln(w, s.Digest())
		return nil
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if atomic.AddInt32(&conns, 1) > drops {
				go queryproto.Serve(conn, []queryproto.Command{{Name: "digest", Run: digest}})
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				// Read through "quit" so the close below is clean, not a reset.
				for r := bufio.NewReader(c); ; {
					if ln, err := r.ReadString('\n'); err != nil || ln == "quit\n" {
						break
					}
				}
				for i := 0; i < lines; i++ {
					fmt.Fprintf(c, "line %d of a response that never finishes\n", i)
				}
			}(conn)
		}
	}()
}

// TestFanoutRetriesTruncation pins the recovery path: a shard that
// drops its first response mid-stream is retried — because truncation
// is an error now — and the second, complete response wins.
func TestFanoutRetriesTruncation(t *testing.T) {
	s := backend.NewStore()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveTruncating(ln, s, 1, 3)
	r := &Router{
		Shards:      []string{ln.Addr().String()},
		Timeout:     2 * time.Second,
		Retries:     2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
	replies := r.Fanout("digest")
	if replies[0].Err != nil {
		t.Fatalf("retry after truncation did not recover: %v", replies[0].Err)
	}
	if replies[0].Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (one truncated, one clean)", replies[0].Attempts)
	}
	if len(replies[0].Lines) != 1 || replies[0].Lines[0] != s.Digest() {
		t.Fatalf("post-retry reply %q, want the store digest", replies[0].Lines)
	}
}

// TestAttemptsMatchBudget pins the retry accounting: a shard that is
// down for good is dialed exactly Retries+1 times and the reply says
// so.
func TestAttemptsMatchBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial fails fast
	r := &Router{
		Shards:      []string{addr},
		Timeout:     500 * time.Millisecond,
		Retries:     3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
	rep := r.queryShard(0, "digest")
	if rep.Err == nil {
		t.Fatal("dial to a closed listener succeeded")
	}
	if rep.Attempts != 4 {
		t.Fatalf("Attempts = %d, want Retries+1 = 4", rep.Attempts)
	}
}

// TestRetryScheduleDeterministic pins the backoff contract: the
// schedule is a pure function of (shard, addr, base, max, attempts) —
// same inputs, same jittered waits — and every wait stays inside the
// [0.5, 1.5) jitter band around the capped exponential baseline.
func TestRetryScheduleDeterministic(t *testing.T) {
	const base, max = 50 * time.Millisecond, 400 * time.Millisecond
	a := retrySchedule(3, "10.0.0.7:7772", base, max, 6)
	b := retrySchedule(3, "10.0.0.7:7772", base, max, 6)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("schedule lengths %d/%d, want attempts-1 = 5", len(a), len(b))
	}
	backoff := base
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wait %d differs across identical calls: %v vs %v", i, a[i], b[i])
		}
		lo, hi := backoff/2, backoff+backoff/2
		if a[i] < lo || a[i] >= hi {
			t.Fatalf("wait %d = %v outside jitter band [%v, %v)", i, a[i], lo, hi)
		}
		if backoff < max {
			backoff *= 2
			if backoff > max {
				backoff = max
			}
		}
	}
	if c := retrySchedule(4, "10.0.0.7:7772", base, max, 6); equalWaits(a, c) {
		t.Fatal("different shards produced identical schedules; jitter is not per-shard")
	}
	if d := retrySchedule(3, "10.0.0.8:7772", base, max, 6); equalWaits(a, d) {
		t.Fatal("different addresses produced identical schedules; jitter is not per-address")
	}
	if got := retrySchedule(0, "x", base, max, 1); got != nil {
		t.Fatalf("single-attempt schedule = %v, want nil", got)
	}
}

func equalWaits(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardErrGuardAfterRetarget is the regression test for the
// counter-slice panic: EnableObs sizes shardErrs to the Shards slice
// of that moment, and a router later retargeted to a larger topology
// (what the rebalance coordinator does) must degrade to not counting
// the new shards, not index out of range.
func TestShardErrGuardAfterRetarget(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close() // both down, so every shard takes the error path
	}
	r := &Router{Shards: addrs[:1], Timeout: 200 * time.Millisecond, Retries: -1}
	r.EnableObs(obs.NewRegistry())
	r.Shards = addrs // grown after EnableObs
	replies := r.Fanout("digest")
	if len(replies) != 2 {
		t.Fatalf("got %d replies, want 2", len(replies))
	}
	for i, rep := range replies {
		if rep.Err == nil {
			t.Fatalf("closed shard %d reported success", i)
		}
	}
}

// TestSnapshotLinesStayChunked pins the transport contract the fanout
// scanner depends on: however large the store, every snapshot line
// stays at the fixed chunk width — far under the 1 MiB scanner cap —
// and the chunked form round-trips to an identical digest. A >1 MiB
// single-line snapshot would kill the fanout scanner with
// bufio.ErrTooLong; this is the regression test that keeps the
// encoding chunked.
func TestSnapshotLinesStayChunked(t *testing.T) {
	s := backend.NewStore()
	streams := clusterReports(5, 220)
	for _, st := range streams {
		for _, r := range st.Reports {
			s.Ingest(r)
		}
	}
	var b strings.Builder
	if err := WriteSnapshotLines(&b, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(b.String())
	total := 0
	for i, ln := range lines {
		if len(ln) > snapshotLineLen {
			t.Fatalf("line %d is %d chars, over the %d chunk width", i, len(ln), snapshotLineLen)
		}
		total += len(ln)
	}
	if total <= 1<<20 {
		t.Fatalf("test store encodes to %d chars; grow it past the 1 MiB scanner cap to prove chunking matters", total)
	}
	merged := backend.NewStore()
	if err := mergeSnapshotLines(merged, lines); err != nil {
		t.Fatal(err)
	}
	if merged.Digest() != s.Digest() {
		t.Fatal("oversized store did not round-trip through snapshot lines")
	}
}
