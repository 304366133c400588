// The parallel usage-epoch pipeline. The usage week is embarrassingly
// parallel along the network axis: every network owns its APs, its
// client population, and its own RNG stream (split off the study source
// by network ID), so networks can simulate concurrently without
// synchronizing. Each worker harvests into a private per-network
// partial store; a deterministic merge then folds the partials into the
// epoch's store in network-index order. Because no random draw
// and no store write ever crosses a network boundary, the merged result
// is bit-for-bit identical for every worker count — the property the
// equivalence and golden tests in parallel_test.go/golden_test.go pin.

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wlanscale/internal/apps"
	"wlanscale/internal/backend"
	"wlanscale/internal/obs"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/synth"
)

// poolMetrics is the epoch pool's observability hookup. All fields are
// nil (no-op) without a registry, and `live` gates the explicit clock
// reads so an un-instrumented run never calls time.Now. Metrics are
// observe-only — nothing here feeds back into the simulation, which is
// why instrumented and plain runs stay bit-identical (the determinism
// contract, pinned by TestRunUsageEpochObsInvariance).
type poolMetrics struct {
	live      bool
	runs      *obs.Counter   // epochs completed
	networks  *obs.Counter   // networks simulated, all workers
	perWorker []*obs.Counter // networks simulated by each worker
	netSim    *obs.Histogram // per-network simulate+harvest time, µs
	queueWait *obs.Histogram // per-claim wait between networks, µs
	mergeDur  *obs.Histogram // full partial-fold time, µs
}

func newPoolMetrics(reg *obs.Registry, workers int) poolMetrics {
	m := poolMetrics{
		live:      reg != nil,
		runs:      reg.Counter("epoch.runs"),
		networks:  reg.Counter("epoch.networks"),
		netSim:    reg.Histogram("epoch.net_sim_us", obs.DurationBuckets),
		queueWait: reg.Histogram("epoch.queue_wait_us", obs.DurationBuckets),
		mergeDur:  reg.Histogram("epoch.merge_us", obs.DurationBuckets),
	}
	m.perWorker = make([]*obs.Counter, workers)
	for w := range m.perWorker {
		m.perWorker[w] = reg.Counter(fmt.Sprintf("epoch.worker.%02d.networks", w))
	}
	return m
}

// RunUsageEpochWorkers is RunUsageEpoch with an explicit worker count.
// workers <= 0 selects GOMAXPROCS. The output is identical for every
// worker count; only wall-clock time changes.
func (s *Study) RunUsageEpochWorkers(f *synth.Fleet, workers int) (*UsageEpoch, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nets := f.NetworkOrder()
	if workers > len(nets) {
		workers = len(nets)
	}
	e := f.Params.Epoch
	label := fmt.Sprintf("usage/%d", e)
	catalog := apps.Catalog()

	// Fan out: workers pull network indices from a shared counter and
	// write only to their network's slot, so no two goroutines touch the
	// same network, partial store, or error cell.
	partials := make([]*backend.Store, len(nets))
	errs := make([]error, len(nets))
	traced := make([][]tracedReport, len(nets))
	tr := s.Config.Trace
	m := newPoolMetrics(s.Config.Obs, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// free marks when this worker last became idle; the gap to
			// the next claim is its queue wait (with an atomic-counter
			// queue it is nanoseconds today, but it is the number that
			// grows first if claiming ever becomes a bottleneck).
			var free time.Time
			if m.live {
				free = time.Now()
			}
			for {
				// Once any network has failed the epoch cannot succeed,
				// so stop pulling new networks instead of simulating the
				// rest of the fleet just to discard it. In-flight
				// networks still finish; which additional errors get
				// recorded depends on scheduling, but the run is failing
				// either way and success output is unaffected.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(nets) {
					return
				}
				if m.live {
					m.queueWait.ObserveDuration(time.Since(free))
				}
				// A partial holds one network's harvest and has exactly
				// one writer.
				part := backend.NewStore()
				part.EnableTrace(tr)
				sp := obs.StartSpan(m.netSim)
				t, err := s.harvestNetworkUsage(f, nets[i], label, catalog, part)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				sp.End()
				traced[i] = t
				m.networks.Inc()
				m.perWorker[w].Inc()
				partials[i] = part
				if m.live {
					free = time.Now()
				}
			}
		}(w)
	}
	wg.Wait()

	// Deterministic merge: fold partials in network-index order. The
	// error scan runs in the same order, so the lowest-index recorded
	// failure is the one reported.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	store := backend.NewStore()
	sp := obs.StartSpan(m.mergeDur)
	for i, part := range partials {
		// Each traced report of this network gets an epoch.merge span
		// covering its partial's fold into the epoch store — the final
		// link of the agent→…→epoch chain. The clock is only read when
		// the network actually has sampled reports.
		var mergeStart time.Time
		if tr != nil && len(traced[i]) > 0 {
			mergeStart = time.Now()
		}
		store.Merge(part)
		if tr != nil && len(traced[i]) > 0 {
			durUS := time.Since(mergeStart).Microseconds()
			for _, trd := range traced[i] {
				tr.RecordEvent(trace.Event{
					Trace:   trd.id,
					Span:    trace.StageEpochMerge.SpanID(),
					Parent:  trace.StageEpochMerge.Parent(),
					Stage:   trace.StageEpochMerge.String(),
					Serial:  trd.serial,
					Seq:     trd.seq,
					StartUS: mergeStart.UnixMicro(),
					DurUS:   durUS,
				})
			}
		}
	}
	sp.End()
	m.runs.Inc()
	return &UsageEpoch{Epoch: e, Scale: f.Params.Scale(), Store: store}, nil
}
