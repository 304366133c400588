// Package series records registry snapshots over time: a
// dependency-free time-series store that turns the point-in-time
// counters of an obs.Registry into fixed-capacity ring-buffer history,
// so "is the harvest degrading" is answerable from one daemon without
// an external scrape stack (DESIGN.md §12).
//
// Each Sample tick reads Registry.Snapshot once and appends one Point
// per metric: counters are differenced into per-second rates, gauges
// sample raw, and histograms record the tick's observation delta
// (count, sum) plus p50/p95/p99 computed over the buckets observed in
// that tick alone. The sample path takes its timestamp as an argument
// — there is no time.Now inside the recording logic — so tests drive a
// synthetic clock tick by tick and assert exact rates; merakid's
// sampling loop is the only place a real clock lives. Rings hold the last
// Cap points per metric; Last and Window answer the queries merakid's
// "series" command and /debug/series serve, and the health rule engine
// (obs/health) evaluates over the same points.
package series

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"wlanscale/internal/obs"
)

// DefaultCap is the ring capacity when Options.Cap is zero: six hours
// of history at a 60s cadence.
const DefaultCap = 360

// Point is one tick of one metric's history.
type Point struct {
	// T is the tick's timestamp, unix milliseconds.
	T int64 `json:"t"`
	// V is the metric's value at the tick: a per-second rate for
	// counters (delta since the previous tick over elapsed time), the
	// raw reading for gauges and func gauges, and the per-second
	// observation rate for histograms.
	V float64 `json:"v"`
	// Count and Sum are the histogram observations recorded during this
	// tick (deltas, not cumulative); zero for scalars.
	Count int64 `json:"count,omitempty"`
	Sum   int64 `json:"sum,omitempty"`
	// P50/P95/P99 are upper-bound quantile estimates over the
	// observations of this tick alone (see obs.Histogram.Quantile for
	// the error bound); zero when the tick saw no observations.
	P50 int64 `json:"p50,omitempty"`
	P95 int64 `json:"p95,omitempty"`
	P99 int64 `json:"p99,omitempty"`
}

// ring is a fixed-capacity circular buffer of points.
type ring struct {
	buf  []Point
	head int // next write slot
	n    int // valid points
}

func (r *ring) push(p Point) {
	r.buf[r.head] = p
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// last returns up to n most recent points, oldest first.
func (r *ring) last(n int) []Point {
	if n > r.n {
		n = r.n
	}
	if n <= 0 {
		return nil
	}
	out := make([]Point, n)
	start := r.head - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// metricSeries is one metric's ring plus the baseline the next tick
// differences against.
type metricSeries struct {
	kind obs.Kind
	ring ring
	// prev is the last cumulative counter value (counters) or
	// observation count/sum and bucket counts (histograms).
	prevValue  int64
	prevCounts []int64
	prevSum    int64
	everActive bool // some tick saw a nonzero value or delta
}

// Options configures a Recorder.
type Options struct {
	// Cap is the ring capacity per metric; zero means DefaultCap.
	Cap int
}

// Recorder samples one registry into per-metric rings. All methods are
// safe for concurrent use; a nil Recorder is a no-op on every method,
// matching the rest of the obs package.
type Recorder struct {
	reg *obs.Registry
	cap int

	mu     sync.Mutex
	series map[string]*metricSeries
	ticks  int64
	lastT  time.Time // previous tick time, for rate denominators
}

// NewRecorder creates a recorder over reg. A nil registry yields a nil
// (no-op) recorder.
func NewRecorder(reg *obs.Registry, o Options) *Recorder {
	if reg == nil {
		return nil
	}
	if o.Cap <= 0 {
		o.Cap = DefaultCap
	}
	return &Recorder{
		reg:    reg,
		cap:    o.Cap,
		series: make(map[string]*metricSeries),
	}
}

// Sample records one tick at time now: one registry snapshot, one new
// point per metric. Ticks must be handed non-decreasing times; a tick
// at or before the previous tick's time still records (gauges are
// timeless) but reports zero rates rather than dividing by a
// non-positive interval.
func (r *Recorder) Sample(now time.Time) {
	if r == nil {
		return
	}
	snap := r.reg.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	elapsed := 0.0
	if r.ticks > 0 {
		elapsed = now.Sub(r.lastT).Seconds()
	}
	for _, s := range snap {
		ms, ok := r.series[s.Name]
		if !ok {
			ms = &metricSeries{kind: s.Kind, ring: ring{buf: make([]Point, r.cap)}}
			r.series[s.Name] = ms
		}
		p := Point{T: now.UnixMilli()}
		switch {
		case s.Hist != nil:
			p = histPoint(p, s.Hist, ms, elapsed)
		case s.Kind == obs.KindCounter:
			delta := s.Value - ms.prevValue
			ms.prevValue = s.Value
			if r.ticks > 0 && elapsed > 0 && delta > 0 {
				p.V = float64(delta) / elapsed
			}
			if delta > 0 {
				ms.everActive = true
			}
		default: // gauges and func gauges: raw
			p.V = float64(s.Value)
			if s.Value != 0 {
				ms.everActive = true
			}
		}
		ms.ring.push(p)
	}
	r.ticks++
	r.lastT = now
}

// histPoint differences a histogram snapshot against the metric's
// previous tick: per-tick count/sum deltas, per-second observation
// rate, and quantiles over the tick's own bucket deltas.
func histPoint(p Point, h *obs.HistogramSnapshot, ms *metricSeries, elapsed float64) Point {
	dCount := h.Count - ms.prevValue
	dSum := h.Sum - ms.prevSum
	deltas := make([]int64, len(h.Counts))
	for i, c := range h.Counts {
		d := c
		if i < len(ms.prevCounts) {
			d -= ms.prevCounts[i]
		}
		deltas[i] = d
	}
	ms.prevValue, ms.prevSum = h.Count, h.Sum
	ms.prevCounts = append(ms.prevCounts[:0], h.Counts...)
	if dCount <= 0 {
		return p
	}
	ms.everActive = true
	p.Count, p.Sum = dCount, dSum
	if elapsed > 0 {
		p.V = float64(dCount) / elapsed
	}
	tick := obs.HistogramSnapshot{Bounds: h.Bounds, Counts: deltas, Count: dCount}
	p.P50 = tick.Quantile(0.50)
	p.P95 = tick.Quantile(0.95)
	p.P99 = tick.Quantile(0.99)
	return p
}

// Ticks returns how many samples have been recorded.
func (r *Recorder) Ticks() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// Names lists every recorded metric, sorted.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.series))
	for n := range r.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Kind reports the recorded kind of a metric and whether the metric
// exists in the store.
func (r *Recorder) Kind(name string) (obs.Kind, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.series[name]
	if !ok {
		return 0, false
	}
	return ms.kind, true
}

// EverActive reports whether the metric has ever shown activity: a
// nonzero gauge reading, a counter increment, or a histogram
// observation. The health engine's absence rules use this to tell "was
// active, went silent" from "never started".
func (r *Recorder) EverActive(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.series[name]
	return ok && ms.everActive
}

// Last returns the metric's n most recent points, oldest first — fewer
// when the ring holds fewer. Unknown metrics return nil.
func (r *Recorder) Last(name string, n int) []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.series[name]
	if !ok {
		return nil
	}
	return ms.ring.last(n)
}

// Window returns the metric's points within d of the most recent
// point's timestamp, oldest first.
func (r *Recorder) Window(name string, d time.Duration) []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.series[name]
	if !ok || ms.ring.n == 0 {
		return nil
	}
	all := ms.ring.last(ms.ring.n)
	cutoff := all[len(all)-1].T - d.Milliseconds()
	for i, p := range all {
		if p.T >= cutoff {
			return all[i:]
		}
	}
	return nil
}

// WriteText renders one metric's last n points, one per line, oldest
// first — the payload of the merakid "series <metric> [n]" query.
// Scalar points render "t=<unixms> v=<value>"; histogram points append
// "count= sum= p50= p95= p99=".
func (r *Recorder) WriteText(w io.Writer, name string, n int) error {
	if r == nil {
		return fmt.Errorf("series: recording disabled")
	}
	kind, ok := r.Kind(name)
	if !ok {
		return fmt.Errorf("series: unknown metric %q", name)
	}
	for _, p := range r.Last(name, n) {
		if kind == obs.KindHistogram {
			fmt.Fprintf(w, "t=%d v=%.3f count=%d sum=%d p50=%d p95=%d p99=%d\n",
				p.T, p.V, p.Count, p.Sum, p.P50, p.P95, p.P99)
			continue
		}
		fmt.Fprintf(w, "t=%d v=%.3f\n", p.T, p.V)
	}
	return nil
}

// jsonSeries is one metric's entry in the WriteJSON rendering.
type jsonSeries struct {
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// WriteJSON renders the last n points of every metric (or of the named
// metric only, when name is non-empty) as one JSON object keyed by
// metric name — what /debug/series serves.
func (r *Recorder) WriteJSON(w io.Writer, name string, n int) error {
	if r == nil {
		return fmt.Errorf("series: recording disabled")
	}
	names := r.Names()
	if name != "" {
		if _, ok := r.Kind(name); !ok {
			return fmt.Errorf("series: unknown metric %q", name)
		}
		names = []string{name}
	}
	out := make(map[string]jsonSeries, len(names))
	for _, nm := range names {
		kind, _ := r.Kind(nm)
		pts := r.Last(nm, n)
		if pts == nil {
			pts = []Point{}
		}
		out[nm] = jsonSeries{Kind: kind.String(), Points: pts}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
