package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/queryproto"
)

// Live shard rebalancing. Growing a merakid cluster N→M shards moves
// ~1/(M) of the networks to new homes under the jump-hash map
// (map.go); this file is the coordinator that actually moves their
// data while the harvest keeps running, in five network-granular
// steps, each idempotent so an interrupted run re-converges:
//
//  1. discover — fan "networks" across the old topology; a network
//     migrates when the shard holding it is not its new-map home.
//  2. part — each source marks its moved networks as refusing
//     ingestion, so devices requeue instead of writing into a slice
//     already being copied. Parted state is WAL-durable on durable
//     shards.
//  3. extract+absorb — each (source, destination) group's slice is
//     exported with "extract" (a consistent per-network deep copy)
//     and pushed into the destination with "absorb" under a
//     deterministic per-pair token. Absorption is WAL-before-apply
//     and token-deduplicated: a destination SIGKILLed mid-migration
//     replays to exactly what it acknowledged, and re-pushing the
//     same token is a no-op.
//  4. verify — for each pair, the destination's per-network digest
//     lines ("digests IDS") for the moved networks must equal the
//     parted source's. On mismatch the absorbed copies are dropped,
//     sources un-parted, and the run fails without having destroyed
//     anything. (Full-topology digests cannot gate here: non-moved
//     networks keep ingesting mid-harvest.)
//  5. cut over — only after the verify gate do sources drop their
//     moved networks. Sources stay parted for the moved set, so
//     old-map agents that have not re-routed yet cannot resurrect a
//     network on its former home.
type Transfer struct {
	// Src indexes the old topology, Dst the new one.
	Src, Dst int
	// Networks is the sorted moved set for this pair.
	Networks []uint64
}

// RebalanceOptions tunes the coordinator. The zero value works for
// tests and small fleets.
type RebalanceOptions struct {
	// Token namespaces the migration: each (src,dst) pair absorbs
	// under "<token>.s<src>d<dst>". Re-running with the same token
	// skips already-absorbed slices (crash recovery); after a verified
	// failure and rollback, re-run with a fresh token. Empty defaults
	// to "rebalance".
	Token string
	// Timeout bounds each shard exchange (a slice push included).
	// Zero defaults to 30s.
	Timeout time.Duration
	// Retries / BackoffBase / BackoffMax follow Router semantics.
	Retries                 int
	BackoffBase, BackoffMax time.Duration
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// RebalanceReport is what a completed rebalance proved.
type RebalanceReport struct {
	Token                string
	OldShards, NewShards int
	Transfers            []Transfer
	// MovedNetworks counts networks that changed homes this run.
	MovedNetworks int
	// SliceDigest is the canonical digest of the moved slice — what a
	// store holding only the moved networks would digest to. Its
	// per-network lines are equal on the source side and the
	// destination side, that equality being the cutover gate.
	SliceDigest string
	// Full is the merged digest over the new topology after cutover.
	Full Digest
}

func (o *RebalanceOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o *RebalanceOptions) router(addrs []string) *Router {
	return &Router{
		Shards:      addrs,
		Timeout:     o.timeout(),
		Retries:     o.Retries,
		BackoffBase: o.BackoffBase,
		BackoffMax:  o.BackoffMax,
	}
}

func (o *RebalanceOptions) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 30 * time.Second
	}
	return o.Timeout
}

// idList renders IDs the way the merakid migration queries take them.
func idList(ids []uint64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatUint(id, 10)
	}
	return strings.Join(parts, ",")
}

// ParseIDList reverses idList — the daemon-side parser for the
// "extract"/"part"/"unpart"/"drop"/"absorb" ID operand.
func ParseIDList(s string) ([]uint64, error) {
	if s == "" {
		return nil, fmt.Errorf("cluster: empty network ID list")
	}
	parts := strings.Split(s, ",")
	ids := make([]uint64, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad network ID %q", p)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// ParsePartitionList is ParseIDList for the "extract" and "digests"
// operands, which may also name backend.UnparsedPartition ("-"), the
// partition of the serials no network parses.
func ParsePartitionList(s string) (ids []uint64, unparsed bool, err error) {
	var nets []string
	for _, p := range strings.Split(s, ",") {
		if strings.TrimSpace(p) == backend.UnparsedPartition {
			unparsed = true
		} else {
			nets = append(nets, p)
		}
	}
	if len(nets) == 0 {
		return nil, true, nil
	}
	ids, err = ParseIDList(strings.Join(nets, ","))
	return ids, unparsed, err
}

// shardReply converts a Reply into (lines, error), folding daemon-side
// ERR lines into the error.
func shardReply(rep Reply) ([]string, error) {
	if rep.Err != nil {
		return nil, fmt.Errorf("shard %d (%s): %w", rep.Shard, rep.Addr, rep.Err)
	}
	if queryproto.IsErr(rep.Lines) {
		return nil, fmt.Errorf("shard %d (%s): %s", rep.Shard, rep.Addr, rep.Lines[0])
	}
	return rep.Lines, nil
}

// step is one pre-cutover shard exchange of Rebalance. undo, when set,
// is the exchange that reverses it on the same shard; then consumes the
// reply, and its error fails the step as an ERR reply would.
type step struct {
	name      string // the error prefix, "cluster: <name>:"
	r         *Router
	shard     int
	cmd, undo string
	payload   []string
	then      func(lines []string) error
}

// Rebalance migrates every network whose home changes between the old
// and new topologies, with the verify-gated cutover described above.
// All old shards must answer discovery — a rebalance that cannot see a
// shard's networks would silently strand them. On any failure before
// the cutover, the coordinator runs the undos its steps armed (drop
// absorbed copies, un-part sources) and returns the first error.
func Rebalance(oldAddrs, newAddrs []string, o RebalanceOptions) (*RebalanceReport, error) {
	if len(oldAddrs) == 0 || len(newAddrs) == 0 {
		return nil, fmt.Errorf("cluster: rebalance needs both topologies (old=%d new=%d shards)", len(oldAddrs), len(newAddrs))
	}
	token := o.Token
	if token == "" {
		token = "rebalance"
	}
	oldR, newR := o.router(oldAddrs), o.router(newAddrs)
	rep := &RebalanceReport{Token: token, OldShards: len(oldAddrs), NewShards: len(newAddrs)}

	// 1. Discover. Every old shard must answer: a missing shard means
	// an unknown set of networks would be stranded.
	o.logf("rebalance: discovering networks across %d shard(s)", len(oldAddrs))
	owned := make([][]uint64, len(oldAddrs))
	for i, r := range oldR.Fanout("networks") {
		lines, err := shardReply(r)
		if err != nil {
			return nil, fmt.Errorf("cluster: discovery: %w", err)
		}
		for _, ln := range lines {
			id, err := strconv.ParseUint(strings.TrimSpace(ln), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: discovery: shard %d: bad network line %q", i, ln)
			}
			owned[i] = append(owned[i], id)
		}
		sort.Slice(owned[i], func(a, b int) bool { return owned[i][a] < owned[i][b] })
	}

	// 2. Plan. A network moves when the shard listing it is not its
	// new-map home (by address, so a shard keeping its slot never
	// copies to itself). Networks listed away from their old-map home
	// are a previous run's leftovers mid-cutover; moving them from
	// where they actually are converges that run too.
	newMap := NewMap(len(newAddrs))
	bySrc := make(map[int][]uint64)
	moved := make(map[uint64]bool)
	var srcs []int
	for src, ids := range owned {
		byDst := make([][]uint64, len(newAddrs))
		for _, id := range ids {
			dst := newMap.Shard(id)
			if newAddrs[dst] == oldAddrs[src] {
				continue
			}
			byDst[dst] = append(byDst[dst], id)
			bySrc[src] = append(bySrc[src], id)
			moved[id] = true
		}
		if len(bySrc[src]) > 0 {
			srcs = append(srcs, src)
		}
		for dst, ids := range byDst {
			if len(ids) > 0 {
				rep.Transfers = append(rep.Transfers, Transfer{Src: src, Dst: dst, Networks: ids})
			}
		}
	}
	rep.MovedNetworks = len(moved)
	if len(rep.Transfers) == 0 {
		o.logf("rebalance: nothing to move")
		rep.Full, _ = newR.MergedDigest()
		return rep, nil
	}
	o.logf("rebalance: moving %d network(s) across %d shard pair(s)", len(moved), len(rep.Transfers))

	// 3–6. Part every source's moved set so the slices stop changing,
	// extract each pair's slice, absorb it into its destination under a
	// per-pair dedup token, and read both sides' per-network digests for
	// the verify gate: one table of shard exchanges, run in that order. A
	// step that changes a shard arms its undo before it runs — a shard
	// can apply a command and then lose the reply — and on any failure
	// the armed undos run in reverse: absorbed copies dropped, sources
	// un-parted.
	var parts, extracts, absorbs, verifies []*step
	for _, src := range srcs {
		ids := idList(bySrc[src])
		parts = append(parts, &step{name: "part", r: oldR, shard: src, cmd: "part " + ids, undo: "unpart " + ids})
	}
	srcSums := make([][]string, len(rep.Transfers))
	dstSums := make([][]string, len(rep.Transfers))
	for k, t := range rep.Transfers {
		ids := idList(t.Networks)
		pair := fmt.Sprintf("%s.s%dd%d %s", token, t.Src, t.Dst, ids)
		absorb := &step{name: "absorb", r: newR, shard: t.Dst, cmd: "absorb " + pair, undo: "drop " + pair,
			then: func(lines []string) error {
				o.logf("rebalance: shard %d %s", t.Dst, strings.Join(lines, " "))
				return nil
			}}
		extracts = append(extracts, &step{name: "extract", r: oldR, shard: t.Src, cmd: "extract " + ids,
			then: func(lines []string) error {
				absorb.payload = lines
				o.logf("rebalance: extracted %d network(s) from shard %d for shard %d (%d lines)",
					len(t.Networks), t.Src, t.Dst, len(lines))
				return nil
			}})
		absorbs = append(absorbs, absorb)
		verifies = append(verifies,
			&step{name: "verify", r: oldR, shard: t.Src, cmd: "digests " + ids,
				then: func(lines []string) error { srcSums[k] = lines; return nil }},
			&step{name: "verify", r: newR, shard: t.Dst, cmd: "digests " + ids,
				then: func(lines []string) error { dstSums[k] = lines; return nil }})
	}
	var armed []*step
	fail := func(err error) (*RebalanceReport, error) {
		for i := len(armed) - 1; i >= 0; i-- {
			if _, err := shardReply(armed[i].r.queryShard(armed[i].shard, armed[i].undo)); err != nil {
				o.logf("rebalance: rollback: %v", err)
			}
		}
		return nil, err
	}
	for _, s := range slices.Concat(parts, extracts, absorbs, verifies) {
		if s.undo != "" {
			armed = append(armed, s)
		}
		lines, err := shardReply(s.r.queryShard(s.shard, s.cmd, s.payload...))
		if err != nil {
			return fail(fmt.Errorf("cluster: %s: %w", s.name, err))
		}
		if s.then != nil {
			if err := s.then(lines); err != nil {
				return fail(fmt.Errorf("cluster: %s shard %d: %w", s.name, s.shard, err))
			}
		}
	}
	// The gate: every moved network must digest on its destination as
	// it does on its parted source. The pairs' network sets are
	// disjoint; sorted by ID, the source lines compose to the slice's
	// digest.
	var src, dst []string
	for k := range rep.Transfers {
		src, dst = append(src, srcSums[k]...), append(dst, dstSums[k]...)
	}
	slices.SortFunc(src, byPartition)
	slices.SortFunc(dst, byPartition)
	rep.SliceDigest = backend.ComposeDigest(src)
	if !slices.Equal(src, dst) {
		return fail(fmt.Errorf("cluster: verify gate failed: destination slice digest %s != source %s; rolled back (re-run with a fresh token)",
			backend.ComposeDigest(dst), rep.SliceDigest))
	}
	o.logf("rebalance: verify gate passed (slice digest %s)", rep.SliceDigest[:12])

	// 7. Cut over: sources drop the moved networks. They stay parted
	// there, so an old-map agent that has not re-routed yet cannot
	// rebuild a dropped network on its former home.
	for _, src := range srcs {
		lines, err := shardReply(oldR.queryShard(src, fmt.Sprintf("drop %s.s%d %s", token, src, idList(bySrc[src]))))
		if err != nil {
			return rep, fmt.Errorf("cluster: drop on shard %d after verified absorb: %w (destinations hold the data; re-run to finish the cutover)", src, err)
		}
		o.logf("rebalance: shard %d %s", src, strings.Join(lines, " "))
	}

	full, err := newR.MergedDigest()
	rep.Full = full
	if err != nil {
		return rep, fmt.Errorf("cluster: post-cutover digest: %w", err)
	}
	o.logf("rebalance: done; new-topology digest %s degraded=%v", full.Digest[:12], full.Degraded)
	return rep, nil
}
