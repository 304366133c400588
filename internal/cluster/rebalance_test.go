package cluster

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/rng"
	"wlanscale/internal/telemetry"
)

// startFleet serves the old stores plus `extra` fresh empty stores on
// loopback listeners. The new topology reuses the old shards'
// addresses for their slots and appends the extras — the grow-in-place
// deployment the rebalance coordinator is built for.
func startFleet(t *testing.T, oldStores []*backend.Store, extra int) (oldAddrs, newAddrs []string, newStores []*backend.Store) {
	t.Helper()
	newStores = append(newStores, oldStores...)
	for i := 0; i < extra; i++ {
		newStores = append(newStores, backend.NewStore())
	}
	for i, s := range newStores {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		serveStore(ln, i, s)
		newAddrs = append(newAddrs, ln.Addr().String())
	}
	return newAddrs[:len(oldStores)], newAddrs, newStores
}

func rebalanceOpts(token string) RebalanceOptions {
	return RebalanceOptions{
		Token:       token,
		Timeout:     5 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// TestRebalanceDigestEquivalence is the issue's proof obligation, run
// over 10 seeds: grow a harvesting 2-shard cluster to 3 shards with a
// live rebalance — while non-moved networks keep ingesting — and the
// merged digest over the new topology must be byte-identical to a
// single store fed the same reports. Moved networks must be gone from
// their sources, and a re-run with the same token must find nothing
// left to move.
func TestRebalanceDigestEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const networks = 12
			streams := clusterReports(seed, networks)
			control := backend.NewStore()
			for _, st := range streams {
				for _, r := range st.Reports {
					control.Ingest(r)
				}
			}
			oldStores := shardStores(2, streams)
			oldAddrs, newAddrs, newStores := startFleet(t, oldStores, 1)

			// The harvest keeps running: every network that keeps its home
			// takes a second wave of reports concurrently with the
			// rebalance. (Moved networks would be parted on a real daemon;
			// the in-process stores here have no ack path to refuse.)
			oldMap, newMap := NewMap(2), NewMap(3)
			src := rng.New(seed).Split("rebalance-wave")
			type ingest struct {
				s *backend.Store
				r []int // stream indexes
			}
			var wave []ingest
			for i, st := range streams {
				if oldMap.Shard(st.NetID) == newMap.Shard(st.NetID) {
					wave = append(wave, ingest{s: newStores[newMap.Shard(st.NetID)], r: []int{i}})
				}
			}
			if len(wave) == 0 {
				t.Fatalf("seed %d moved every network; pick seeds where some stay", seed)
			}
			// One goroutine per stream, ingesting in seq order: an AP's
			// reports arrive over one tunnel, so seqnos are in order per
			// serial — out-of-order delivery would (correctly) be eaten
			// by the watermark dedup.
			var wg sync.WaitGroup
			for _, in := range wave {
				for _, i := range in.r {
					st := streams[i]
					var batch []*telemetry.Report
					for seq := uint64(9); seq <= 12; seq++ {
						r := clusterReport(st.NetID, int(st.Serial[len(st.Serial)-1]-'0'), seq, src)
						control.Ingest(r)
						batch = append(batch, r)
					}
					wg.Add(1)
					go func(s *backend.Store, batch []*telemetry.Report) {
						defer wg.Done()
						for _, r := range batch {
							s.Ingest(r)
						}
					}(in.s, batch)
				}
			}

			o := rebalanceOpts(fmt.Sprintf("t%d", seed))
			var formats []string
			o.Log = func(format string, _ ...any) { formats = append(formats, format) }
			rep, err := Rebalance(oldAddrs, newAddrs, o)
			wg.Wait()
			if err != nil {
				t.Fatalf("rebalance: %v", err)
			}
			if rep.MovedNetworks == 0 {
				t.Fatal("2->3 rebalance moved nothing")
			}
			moved := make(map[uint64]bool)
			srcs := make(map[int]bool)
			for _, tr := range rep.Transfers {
				if tr.Dst != 2 {
					t.Fatalf("jump hash growth moved a network to old shard %d", tr.Dst)
				}
				srcs[tr.Src] = true
				for _, id := range tr.Networks {
					moved[id] = true
				}
			}

			// The progress lines are a contract: the cluster-ops benchmark
			// parses their format strings, in this order, into its
			// per-step rebalance timings.
			want := []string{"discovering", "moving"}
			for _, step := range []string{"extracted", "shard"} {
				for range rep.Transfers {
					want = append(want, step)
				}
			}
			want = append(want, "verify gate passed")
			for range srcs {
				want = append(want, "shard")
			}
			want = append(want, "done")
			if len(formats) != len(want) {
				t.Fatalf("progress lines %q, want prefixes %q", formats, want)
			}
			for i, w := range want {
				if !strings.HasPrefix(formats[i], "rebalance: "+w) {
					t.Fatalf("progress line %d is %q, want prefix %q", i, formats[i], "rebalance: "+w)
				}
			}

			// Moved networks are gone from their sources...
			for i, s := range oldStores {
				for _, id := range s.Networks(backend.NetworkOfSerial) {
					if moved[id] {
						t.Fatalf("moved network %d still on source shard %d", id, i)
					}
				}
			}
			// ...and the whole cluster still equals the control.
			newR := &Router{Shards: newAddrs, Timeout: 5 * time.Second}
			dig, err := newR.MergedDigest()
			if err != nil {
				t.Fatal(err)
			}
			if dig.Digest != control.Digest() {
				t.Fatalf("seed %d: rebalanced cluster digest %s != control %s", seed, dig.Digest, control.Digest())
			}

			// Same token, same topology: the re-run (the crash-recovery
			// invocation) finds every network already home.
			rep2, err := Rebalance(newAddrs, newAddrs, rebalanceOpts(fmt.Sprintf("t%d", seed)))
			if err != nil {
				t.Fatalf("re-run: %v", err)
			}
			if rep2.MovedNetworks != 0 {
				t.Fatalf("re-run moved %d networks, want 0", rep2.MovedNetworks)
			}
		})
	}
}

// TestRebalanceVerifyGateRollsBack forces the verify gate to fail —
// the destination claims the pair tokens were already absorbed, so the
// slices never land — and checks the coordinator rolls everything
// back: no data lost on sources, nothing parted, no stray token state,
// and a re-run with a fresh token succeeds.
func TestRebalanceVerifyGateRollsBack(t *testing.T) {
	streams := clusterReports(99, 10)
	control := backend.NewStore()
	for _, st := range streams {
		for _, r := range st.Reports {
			control.Ingest(r)
		}
	}
	oldStores := shardStores(2, streams)
	oldAddrs, newAddrs, newStores := startFleet(t, oldStores, 1)

	// Poison the destination: pre-mark both pair tokens so every absorb
	// dedups into a no-op and the moved slice never arrives.
	const token = "poisoned"
	newStores[2].MarkAbsorbed(token + ".s0d2")
	newStores[2].MarkAbsorbed(token + ".s1d2")

	_, err := Rebalance(oldAddrs, newAddrs, rebalanceOpts(token))
	if err == nil {
		t.Fatal("verify gate passed with an empty destination")
	}
	if !strings.Contains(err.Error(), "verify gate failed") {
		t.Fatalf("error %v, want the verify-gate failure", err)
	}

	// Rollback proof: the old topology still holds everything, nothing
	// is parted, and the poisoned tokens were cleared by the rollback
	// drop (drop forgets the token — that is what lets a retry work).
	oldR := &Router{Shards: oldAddrs, Timeout: 5 * time.Second}
	dig, err := oldR.MergedDigest()
	if err != nil {
		t.Fatal(err)
	}
	if dig.Digest != control.Digest() {
		t.Fatal("rollback lost data: old topology no longer matches control")
	}
	for i, s := range oldStores {
		if parted := s.PartedIDs(); len(parted) != 0 {
			t.Fatalf("source shard %d still parted after rollback: %v", i, parted)
		}
	}
	if n := newStores[2].AbsorbedCount(); n != 0 {
		t.Fatalf("destination still holds %d absorb tokens after rollback", n)
	}

	// A fresh token — the documented recovery — succeeds end to end.
	rep, err := Rebalance(oldAddrs, newAddrs, rebalanceOpts("fresh"))
	if err != nil {
		t.Fatalf("fresh-token rebalance: %v", err)
	}
	if rep.MovedNetworks == 0 {
		t.Fatal("fresh-token rebalance moved nothing")
	}
	newR := &Router{Shards: newAddrs, Timeout: 5 * time.Second}
	dig, err = newR.MergedDigest()
	if err != nil {
		t.Fatal(err)
	}
	if dig.Digest != control.Digest() {
		t.Fatal("fresh-token rebalance digest != control")
	}
}

// TestRebalanceNeedsEveryShard pins discovery's all-shards rule: a
// rebalance that cannot enumerate one shard's networks must refuse to
// plan (it would silently strand them), not proceed degraded.
func TestRebalanceNeedsEveryShard(t *testing.T) {
	streams := clusterReports(7, 6)
	oldStores := shardStores(2, streams)
	oldAddrs, newAddrs, _ := startFleet(t, oldStores, 1)
	down, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	downAddr := down.Addr().String()
	down.Close()
	brokenOld := []string{oldAddrs[0], downAddr}
	o := rebalanceOpts("t")
	o.Retries = -1
	o.Timeout = 500 * time.Millisecond
	if _, err := Rebalance(brokenOld, newAddrs, o); err == nil {
		t.Fatal("rebalance planned around an unreachable source shard")
	} else if !strings.Contains(err.Error(), "discovery") {
		t.Fatalf("error %v, want a discovery failure", err)
	}
}

// TestParseIDList covers the daemon-side operand parser.
func TestParseIDList(t *testing.T) {
	ids, err := ParseIDList("3,17, 101")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 17 || ids[2] != 101 {
		t.Fatalf("ParseIDList = %v", ids)
	}
	for _, bad := range []string{"", "1,,2", "1,x"} {
		if _, err := ParseIDList(bad); err == nil {
			t.Fatalf("ParseIDList(%q) accepted", bad)
		}
	}
	if got := idList([]uint64{3, 17, 101}); got != "3,17,101" {
		t.Fatalf("idList = %q", got)
	}
}
