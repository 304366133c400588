package main

import "fmt"

// round is what one round of a workload measured. Every workload is a
// sequence of identical rounds — set up, do a fixed amount of work
// against freshly started processes, check the oracles, tear down — and
// a run reports medians over its rounds, so one run already carries
// several samples of every figure including set-up time.
type round struct {
	setupS float64   // set-up, never inside a timed window
	workS  float64   // wall time of the round's fixed work
	cpuS   float64   // Σ utime+stime of the processes under test during the work
	rssMiB float64   // Σ VmHWM of the processes under test at the end
	opsMS  []float64 // latency of each operation of the workload's operation stream
	timedS float64   // the measured phase, set-up end → round end: what counts toward --seconds

	attempted, failed int
	// layer holds what the round observed about single layers from
	// outside (process counters, query latencies, step timestamps).
	layer map[string]float64
}

// runRounds repeats one until the rounds' timed work adds up to the
// run's --seconds. A traced or -quick run makes a single round.
func runRounds(e *env, traced bool, one func(i int) (*round, error)) ([]*round, error) {
	var rounds []*round
	timed := 0.0
	for i := 0; timed < e.seconds; i++ {
		r, err := one(i)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		timed += r.timedS
		if traced || e.quick {
			break
		}
	}
	return rounds, nil
}

// aggregate folds rounds into the end-to-end metrics: each is a median
// over rounds — for the operation stream, of the rounds' own medians and
// tails, so one disturbed round cannot set the run's tail.
func aggregate(rounds []*round) *result {
	res := &result{metrics: make(map[string]float64)}
	var setup, work, cpu, rss, p50, tails []float64
	layer := make(map[string][]float64)
	for _, r := range rounds {
		setup = append(setup, r.setupS)
		work = append(work, r.workS)
		cpu = append(cpu, r.cpuS)
		rss = append(rss, r.rssMiB)
		p50 = append(p50, median(r.opsMS))
		tails = append(tails, tail(r.opsMS))
		res.attempted += r.attempted
		res.failed += r.failed
		for k, v := range r.layer {
			layer[k] = append(layer[k], v)
		}
	}
	res.metrics["setup_s"] = median(setup)
	res.metrics["work_s"] = median(work)
	res.metrics["sut_cpu_s"] = median(cpu)
	res.metrics["sut_peak_rss_mb"] = median(rss)
	res.metrics["op_p50_ms"] = median(p50)
	res.metrics["op_tail_ms"] = median(tails)
	for k, vs := range layer {
		res.metrics[k] = median(vs)
	}
	return res
}
