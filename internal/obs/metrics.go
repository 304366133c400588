package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; all methods are no-ops on a nil receiver, which is
// how a nil Registry turns instrumentation into free code.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Like Counter, nil receivers
// are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a streaming histogram with bucket upper bounds fixed at
// construction. Observe is allocation-free: one bounded linear scan
// over the bounds (they are few and cache-resident) plus three atomic
// adds. Because the bucket layout never changes, readers can snapshot
// the counts without any lock against writers; a snapshot taken while
// observations are in flight may be off by the in-flight observation,
// never torn across buckets of a resize.
type Histogram struct {
	bounds []int64        // ascending upper bounds (inclusive)
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Int64
	total  atomic.Int64
}

// NewHistogram creates a histogram with the given ascending upper
// bounds. An empty bounds slice yields a single +Inf bucket (count and
// sum only).
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// DurationBuckets is the default bucket layout for duration histograms,
// in microseconds: 50µs to 30s, roughly 1-2.5-5 per decade. Wide enough
// for a per-report ingest and a full-fleet epoch merge alike.
var DurationBuckets = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000,
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveDuration records a duration in microseconds, the unit
// DurationBuckets is laid out in.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observed value, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <=
// 1): the bound of the bucket holding the q*count-th observation.
//
// Error bound: because observations inside a bucket are not tracked
// individually, the true quantile lies in (lower bound, returned
// bound], so the estimate never understates and overstates by at most
// one bucket width. With the DurationBuckets 1-2.5-5 decade layout the
// returned value is at most 2.5x the true quantile; the estimate is
// exact whenever every observation in the target bucket equals its
// bound. The +Inf bucket has no upper bound, so a quantile landing
// there reports the largest finite bound (or 0 with no finite buckets)
// — a floor rather than a ceiling, clearly marked by Snapshot
// consumers.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return quantile(h.bounds, len(h.counts), func(i int) int64 { return h.counts[i].Load() }, h.total.Load(), q)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// entry for the +Inf bucket.
	Bounds []int64
	Counts []int64
	Sum    int64
	Count  int64
}

// Snapshot copies the current buckets. The copy is consistent per
// bucket, not across buckets (writers never block for readers).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile is Histogram.Quantile over the snapshot's buckets, for the
// "metrics" text and the series points (which pass one tick's bucket
// deltas as Counts).
func (h *HistogramSnapshot) Quantile(q float64) int64 {
	return quantile(h.Bounds, len(h.Counts), func(i int) int64 { return h.Counts[i] }, h.Count, q)
}

// quantile is the rank walk over n buckets whose counts (count(i))
// sum to total; the live histogram reads its atomics in place, so a
// quantile allocates nothing.
func quantile(bounds []int64, n int, count func(i int) int64, total int64, q float64) int64 {
	if total <= 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(total))), 1)
	var seen int64
	for i := range n {
		seen += count(i)
		if seen >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}
