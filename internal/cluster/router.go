package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/obs"
	"wlanscale/internal/queryproto"
	"wlanscale/internal/rng"
)

// Router is the scatter-gather coordinator: it owns the query
// addresses of every shard in a cluster and fans commands across them
// concurrently. Each shard gets its own dial+response deadline and its
// own jittered retry budget, so one slow or dead shard delays a fanout
// by at most Timeout×attempts and never sinks it: the other shards'
// answers come back regardless, marked degraded.
//
// A Router is stateless between calls (every fanout dials fresh
// connections) and safe for concurrent use.
type Router struct {
	// Shards holds each shard's query address, indexed by shard ID —
	// the same indexing Map.Shard produces.
	Shards []string
	// Timeout bounds one attempt against one shard: dial plus the full
	// response read. Zero defaults to 5s.
	Timeout time.Duration
	// Retries is how many times a failed shard query is re-attempted
	// (so attempts = Retries+1). Zero defaults to 2; negative disables
	// retries.
	Retries int
	// BackoffBase and BackoffMax tune the between-attempt backoff;
	// zero values default to 50ms and 1s. Each wait is scaled by a
	// jitter factor in [0.5, 1.5) drawn from a per-shard seeded stream,
	// so a fanout retrying several shards does not hammer them in
	// lockstep.
	BackoffBase, BackoffMax time.Duration

	// metrics, when EnableObs attached a registry. All nil-safe.
	fanouts   *obs.Counter
	retries   *obs.Counter
	degraded  *obs.Counter
	shardErrs []*obs.Counter
	fanoutDur *obs.Histogram
}

// Reply is one shard's answer to a fanout: the response lines on
// success, or the error that exhausted the shard's retry budget.
type Reply struct {
	Shard int
	Addr  string
	Lines []string
	Err   error
	// Attempts is how many times the shard was dialed (1 = first try
	// succeeded).
	Attempts int
}

// Digest is a cluster-wide merged digest. When Degraded is true the
// digest covers only the live shards (Down lists the dead ones) — a
// partial answer by design, so an operator mid-outage still sees what
// the surviving slice of the fleet holds.
type Digest struct {
	Digest   string
	Shards   int
	Down     []int
	Degraded bool
}

// EnableObs folds the router's counters into reg: "cluster.fanouts",
// "cluster.retries", "cluster.degraded" (fanouts that lost at least
// one shard), a "cluster.fanout_us" duration histogram, and one
// "cluster.shard.NN.errors" counter per shard — the per-shard health
// signal; a climbing counter on one index means that shard, not the
// fabric. Observe-only, like everything in obs.
func (r *Router) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.fanouts = reg.Counter("cluster.fanouts")
	r.retries = reg.Counter("cluster.retries")
	r.degraded = reg.Counter("cluster.degraded")
	r.fanoutDur = reg.Histogram("cluster.fanout_us", obs.DurationBuckets)
	r.shardErrs = make([]*obs.Counter, len(r.Shards))
	for i := range r.Shards {
		r.shardErrs[i] = reg.Counter(obs.Indexed("cluster.shard", i, "errors"))
	}
}

func (r *Router) timeout() time.Duration {
	if r.Timeout <= 0 {
		return 5 * time.Second
	}
	return r.Timeout
}

func (r *Router) attempts() int {
	switch {
	case r.Retries < 0:
		return 1
	case r.Retries == 0:
		return 3
	default:
		return r.Retries + 1
	}
}

// Fanout sends cmd to every shard concurrently and returns one Reply
// per shard, indexed by shard ID. It never returns an error itself:
// per-shard failures live in the replies, so a caller decides whether
// a partial answer is acceptable (NumDown counts the casualties).
func (r *Router) Fanout(cmd string) []Reply {
	r.fanouts.Inc()
	sp := obs.StartSpan(r.fanoutDur)
	defer sp.End()
	replies := make([]Reply, len(r.Shards))
	var wg sync.WaitGroup
	for i := range r.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = r.queryShard(i, cmd)
		}(i)
	}
	wg.Wait()
	if NumDown(replies) > 0 {
		r.degraded.Inc()
	}
	return replies
}

// NumDown counts replies that exhausted their retries.
func NumDown(replies []Reply) int {
	n := 0
	for _, rep := range replies {
		if rep.Err != nil {
			n++
		}
	}
	return n
}

// DownShards lists the shard IDs that failed, in order.
func DownShards(replies []Reply) []int {
	var down []int
	for _, rep := range replies {
		if rep.Err != nil {
			down = append(down, rep.Shard)
		}
	}
	return down
}

// retrySchedule returns the waits between a shard's attempts (length
// attempts-1): capped exponential backoff from base, each wait scaled
// by a jitter factor in [0.5, 1.5) drawn from a stream seeded per
// (shard, address). The schedule is a pure function of those inputs —
// deterministic for a given deployment yet staggered across shards —
// which the retry-determinism test pins.
func retrySchedule(shard int, addr string, base, max time.Duration, attempts int) []time.Duration {
	if attempts <= 1 {
		return nil
	}
	jitter := rng.New(uint64(shard)).Split("cluster-retry/" + addr)
	waits := make([]time.Duration, 0, attempts-1)
	backoff := base
	for a := 1; a < attempts; a++ {
		waits = append(waits, time.Duration(float64(backoff)*(0.5+jitter.Float64())))
		if backoff < max {
			backoff *= 2
			if backoff > max {
				backoff = max
			}
		}
	}
	return waits
}

// shardErr bumps a shard's error counter. The counter slice was sized
// when EnableObs ran; a Router whose Shards slice has since been
// replaced with a longer one (the rebalance coordinator retargets
// routers) must degrade to not counting, not index out of range.
func (r *Router) shardErr(i int) {
	if i < len(r.shardErrs) {
		r.shardErrs[i].Inc()
	}
}

// queryShard runs one shard's retry loop: one queryproto exchange per
// attempt — header, plus payload lines for a push (absorb is
// token-deduplicated daemon-side, so blind retries are safe) — with the
// jittered capped backoff of retrySchedule between attempts.
func (r *Router) queryShard(i int, header string, payload ...string) Reply {
	rep := Reply{Shard: i, Addr: r.Shards[i]}
	base := r.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := r.BackoffMax
	if max <= 0 {
		max = time.Second
	}
	waits := retrySchedule(i, rep.Addr, base, max, r.attempts())
	for attempt := 0; attempt < r.attempts(); attempt++ {
		if attempt > 0 {
			r.retries.Inc()
			time.Sleep(waits[attempt-1])
		}
		rep.Attempts++
		rep.Lines, rep.Err = queryproto.Do(rep.Addr, r.timeout(), header, payload...)
		if rep.Err == nil {
			return rep
		}
		r.shardErr(i)
	}
	return rep
}

// ErrTruncated is queryproto.ErrTruncated: a shard response whose
// connection closed before the blank-line terminator is thrown away
// and the attempt retried, never merged.
var ErrTruncated = queryproto.ErrTruncated

// errAllDown is returned when no shard answered a merge.
var errAllDown = errors.New("cluster: every shard is down")

// MergedStore fetches each live shard's snapshot and folds them into
// one store, merging in shard-index order so the result is
// deterministic regardless of which fetch finished first. The replies
// are returned alongside so callers can see which shards contributed;
// an error is returned only when not a single shard answered.
func (r *Router) MergedStore() (*backend.Store, []Reply, error) {
	replies := r.Fanout("snapshot")
	merged := backend.NewStore()
	up := 0
	for i := range replies {
		rep := &replies[i]
		if rep.Err != nil {
			continue
		}
		if queryproto.IsErr(rep.Lines) {
			rep.Err = fmt.Errorf("cluster: shard %d: %s", rep.Shard, rep.Lines[0])
			continue
		}
		if err := mergeSnapshotLines(merged, rep.Lines); err != nil {
			rep.Err = err
			continue
		}
		up++
	}
	if up == 0 {
		return nil, replies, errAllDown
	}
	return merged, replies, nil
}

// MergedDigest is the cluster-wide analogue of the merakid "digest"
// query: the canonical SHA-256 of every live shard's contents merged.
// On a healthy cluster whose agents route by the shard map, the result
// is byte-identical to the digest a single daemon fed the same reports
// would serve — the equivalence the cluster and cmd/merakid subprocess
// tests pin. With shards down the digest still comes back, flagged
// Degraded, covering the surviving shards only.
func (r *Router) MergedDigest() (Digest, error) {
	merged, replies, err := r.MergedStore()
	if err != nil {
		return Digest{Shards: len(r.Shards), Down: DownShards(replies), Degraded: true}, err
	}
	return Digest{
		Digest:   merged.Digest(),
		Shards:   len(r.Shards),
		Down:     DownShards(replies),
		Degraded: NumDown(replies) > 0,
	}, nil
}
