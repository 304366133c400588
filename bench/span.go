package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from bench code around
// an exported function of that layer. Spans of one request (a batch or
// a report) share Req; Parent is the span that caused this one, -1 for
// a root.
type span struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and hands out -1, so the same replica code runs
// traced and untraced and the difference is the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(layer, name string, parent, req int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Layer: layer, Name: name, ID: id, Parent: parent, Req: req, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return id
}

// end closes a span start returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time in ns, indexed like spans: its
// duration minus the part of that interval its child spans cover.
// Children may overlap one another (concurrent work) and may stick out
// of the parent; the covered part is the union of the children clipped
// to the parent. An unfinished span is an error.
func selfTimes(spans []span) ([]int64, error) {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.EndNS < s.StartNS {
			return nil, fmt.Errorf("span %d (%s.%s) never ended", s.ID, s.Layer, s.Name)
		}
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNS < spans[ks[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self, nil
}

// layerSelfMS sums self time by layer, in ms.
func layerSelfMS(spans []span) (map[string]float64, error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Layer] += float64(self[i]) / 1e6
	}
	return out, nil
}

// reconcile checks that the isolated hops add up to what the traced
// pipeline measured: the layer ledger is only worth reading if its sum
// explains the end-to-end figure. It returns hops/measured and an error
// when that is further than tolerance from 1.
func reconcile(what string, hopsUS, measuredUS, tolerance float64) (float64, error) {
	if measuredUS <= 0 {
		return 0, fmt.Errorf("reconcile %s: nothing measured", what)
	}
	ratio := hopsUS / measuredUS
	if math.Abs(ratio-1) > tolerance {
		return ratio, fmt.Errorf("reconcile %s: isolated hops sum to %.1f µs, the traced pipeline measured %.1f µs (ratio %.2f, allowed 1±%.2f)",
			what, hopsUS, measuredUS, ratio, tolerance)
	}
	return ratio, nil
}
