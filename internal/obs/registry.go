package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a named collection of metrics. Get-or-create accessors
// (Counter, Gauge, Histogram) hand out the live metric for a name, so
// independently instrumented subsystems sharing a registry share
// counters by naming them alike. A nil *Registry is the no-op registry:
// every accessor returns nil, and nil metrics ignore all writes — the
// un-instrumented configuration costs nothing on the hot path.
//
// Metric names are dotted lowercase paths, "subsystem.metric" with the
// value's unit suffixed where it is not a plain count
// ("store.save_us"). DESIGN.md §8 lists the scheme and every name the
// pipeline emits.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // *Counter | *Gauge | *Histogram | funcGauge
}

// funcGauge reads an external value at snapshot time — how existing
// counter blocks (telemetry.HarvestHealth, the store's ingest counts)
// fold into the registry without rewriting their internals.
type funcGauge func() int64

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the metric under name, creating it with mk on first
// use. Reusing a name for a different metric kind is a programming
// error and panics.
func lookup[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	return t
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use. Bounds are fixed at
// construction: a later call with different bounds returns the
// existing histogram unchanged. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, name, func() *Histogram { return NewHistogram(bounds) })
}

// RegisterFunc registers a gauge whose value is read by calling fn at
// snapshot time. fn must be safe for concurrent use. Re-registering a
// name replaces the previous function. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if _, isFunc := m.(funcGauge); !isFunc {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
	}
	r.metrics[name] = funcGauge(fn)
}

// Indexed builds the conventional per-index metric name sharded
// subsystems register: "<prefix>.<NN>.<suffix>", as in
// "cluster.shard.00.errors". Zero-padding
// to two digits keeps the sorted WriteText/WriteJSON output grouped by
// index; indexes past 99 widen naturally and sort after the padded
// block, which is acceptable for the load-skew scan these names serve.
func Indexed(prefix string, i int, suffix string) string {
	return fmt.Sprintf("%s.%02d.%s", prefix, i, suffix)
}

// Kind classifies a sample's metric type. Func gauges report as
// KindGauge: to a consumer they are instantaneous readings, however the
// value is produced. The kind drives the "# TYPE" metadata lines in
// WriteProm and the per-kind sampling rules of obs/series (counters
// difference into rates, gauges sample raw, histograms summarize per
// tick).
type Kind uint8

const (
	KindGauge Kind = iota
	KindCounter
	KindHistogram
)

// String returns the Prometheus type name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// Sample is one metric in a registry snapshot.
type Sample struct {
	Name string
	Kind Kind
	// Value holds counter, gauge, and func-gauge readings; Hist is set
	// instead for histograms.
	Value int64
	Hist  *HistogramSnapshot
}

// Snapshot reads every metric, sorted by name. Func gauges run outside
// the registry lock, so a func gauge may itself use the registry.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	metrics := make(map[string]any, len(r.metrics))
	for n, m := range r.metrics {
		names = append(names, n)
		metrics[n] = m
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, n := range names {
		s := Sample{Name: n}
		switch m := metrics[n].(type) {
		case *Counter:
			s.Kind = KindCounter
			s.Value = m.Value()
		case *Gauge:
			s.Value = m.Value()
		case funcGauge:
			s.Value = m()
		case *Histogram:
			s.Kind = KindHistogram
			hs := m.Snapshot()
			s.Hist = &hs
		}
		out = append(out, s)
	}
	return out
}

// WriteText renders the snapshot one metric per line — "name value"
// for scalars, "name count=N sum=S mean=M p50=Q p99=Q" for histograms
// — which is what merakid's "metrics" query returns.
func (r *Registry) WriteText(w io.Writer) {
	for _, s := range r.Snapshot() {
		if s.Hist == nil {
			fmt.Fprintf(w, "%s %d\n", s.Name, s.Value)
			continue
		}
		h := s.Hist
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		fmt.Fprintf(w, "%s count=%d sum=%d mean=%.1f p50=%d p99=%d\n",
			s.Name, h.Count, h.Sum, mean, h.Quantile(0.5), h.Quantile(0.99))
	}
}

// jsonHistogram is the wire form WriteJSON uses for histograms.
type jsonHistogram struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Mean    float64 `json:"mean"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

// WriteJSON renders the snapshot as one expvar-style JSON object with
// sorted keys: scalars as numbers, histograms as objects. merakid's
// -debug listener serves this at /debug/vars.
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.Snapshot()
	var buf []byte
	buf = append(buf, '{')
	for i, s := range samples {
		if i > 0 {
			buf = append(buf, ',')
		}
		key, _ := json.Marshal(s.Name)
		buf = append(buf, key...)
		buf = append(buf, ':')
		if s.Hist == nil {
			buf = append(buf, fmt.Sprintf("%d", s.Value)...)
			continue
		}
		h := s.Hist
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		obj, err := json.Marshal(jsonHistogram{
			Count: h.Count, Sum: h.Sum, Mean: mean,
			Bounds: h.Bounds, Buckets: h.Counts,
		})
		if err != nil {
			return err
		}
		buf = append(buf, obj...)
	}
	buf = append(buf, '}', '\n')
	_, err := w.Write(buf)
	return err
}
