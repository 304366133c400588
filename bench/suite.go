package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Suite mode: every workload untraced, then every workload traced, the
// whole thing -repeat times. With -check, two sets of the same build
// must agree on every end-to-end metric within that metric's own bound:
// a benchmark that cannot repeat itself cannot judge a change.

// workloadRecord is one workload's numbers in one set.
type workloadRecord struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// repeatDiff is how far set 1 moved from set 0 on one metric, counted
// in the metric's worse direction (negative = got better).
type repeatDiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Worse    float64 `json:"worse_by"` // share of First
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_bound"`
}

// suiteOutput is bench/out/metrics.json (and, for -repeat 2, the
// committed repeat-baseline.json).
type suiteOutput struct {
	Seed  uint64                      `json:"seed"`
	Sets  []map[string]workloadRecord `json:"sets"`
	Diffs []repeatDiff                `json:"repeat_diffs,omitempty"`
}

// pick copies the declared metrics out of a run's measurements; missing
// per-layer metrics are the layers the workload bypasses and read 0.
func pick(defs []metricDef, got map[string]float64, zeroMissing bool) (map[string]float64, error) {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = v
	}
	return out, nil
}

// worseBy is how much second is worse than first as a share of first.
func worseBy(d metricDef, first, second float64) float64 {
	if first == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}

func runSuite(e *env, bf *benchmarkFile, repeat int, check bool) error {
	out := suiteOutput{Seed: e.seed}
	for set := 0; set < repeat; set++ {
		records := make(map[string]workloadRecord)
		digests := make(map[string]string)
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				fmt.Printf("\n== set %d  %s  traced=%v\n", set, w.name, traced)
				res, err := w.measure(e, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				rec := records[w.name]
				if traced {
					if rec.PerLayer, err = pick(bf.PerLayer, res.metrics, true); err != nil {
						return err
					}
					// Outputs must not depend on whether the run was traced.
					if res.digest != digests[w.name] {
						return fmt.Errorf("oracle: %s rendered %s untraced and %s traced", w.name, digests[w.name], res.digest)
					}
					printMetrics(bf.PerLayer, rec.PerLayer)
				} else {
					if rec.EndToEnd, err = pick(bf.EndToEnd, res.metrics, false); err != nil {
						return err
					}
					rec.Attempted, rec.Failed = res.attempted, res.failed
					digests[w.name] = res.digest
					printMetrics(bf.EndToEnd, rec.EndToEnd)
					fmt.Printf("failed_share = %d / %d\n", res.failed, res.attempted)
				}
				records[w.name] = rec
			}
		}
		out.Sets = append(out.Sets, records)
	}

	failed := 0
	if repeat >= 2 {
		for _, w := range workloads {
			for _, d := range bf.EndToEnd {
				a, b := out.Sets[0][w.name].EndToEnd[d.Name], out.Sets[1][w.name].EndToEnd[d.Name]
				diff := repeatDiff{Workload: w.name, Metric: d.Name, First: a, Second: b, Worse: worseBy(d, a, b), Bound: d.Bound}
				// Either set may be the worse one: the two are the same build.
				diff.Within = diff.Worse <= d.Bound && worseBy(d, b, a) <= d.Bound
				if !diff.Within {
					failed++
				}
				out.Diffs = append(out.Diffs, diff)
				fmt.Printf("repeat %-14s %-16s %12.4f %12.4f  worse by %+7.2f %% (bound %.0f %%) %s\n",
					w.name, d.Name, a, b, 100*diff.Worse, 100*d.Bound, map[bool]string{true: "ok", false: "OUTSIDE"}[diff.Within])
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.out, "metrics.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if check && repeat < 2 {
		return fmt.Errorf("-check needs -repeat 2")
	}
	if check && failed > 0 {
		return fmt.Errorf("repeatability check: %d end-to-end metrics differ between two sets of the same build by more than their bound", failed)
	}
	return nil
}

func printMetrics(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-44s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
}
