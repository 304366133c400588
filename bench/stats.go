package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice: the
// smallest sample with at least a share q of the samples at or below it.
// It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median averages the two middle samples of an even-sized set, so two
// rounds report their mean rather than the faster one.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// supported says whether the q-quantile of n samples has at least ten
// samples beyond it, the condition for reporting it at all.
func supported(n int, q float64) bool {
	beyond := n - int(math.Ceil(q*float64(n)))
	return beyond >= 10
}

// tail is the operation stream's tail latency: p99 when the stream
// supports it, otherwise the slowest operation — with a handful of
// samples no percentile beyond the median means anything, and the
// slowest one is what an operator remembers.
func tail(xs []float64) float64 {
	s := sortedCopy(xs)
	if supported(len(s), 0.99) {
		return quantile(s, 0.99)
	}
	return quantile(s, 1)
}

// pacer is the bookkeeping of one open-loop sender: report k is due at
// start + k×interval whether or not the system keeps up, its latency
// runs from that due instant (not from when it was actually sent, so a
// stall charges every report that should have gone out during it), and
// how late the sender itself ran is recorded separately, because a late
// generator invalidates the run.
type pacer struct {
	start    time.Time
	interval time.Duration
	total    int

	sent, acked int
	lateMax     time.Duration
	latencyMS   []float64
}

func (p *pacer) due(k int) time.Time { return p.start.Add(time.Duration(k) * p.interval) }

// dueBy is how many reports should have been sent by now.
func (p *pacer) dueBy(now time.Time) int {
	if now.Before(p.start) {
		return 0
	}
	n := int(now.Sub(p.start)/p.interval) + 1
	if n > p.total {
		n = p.total
	}
	return n
}

// noteSent records that the next report went out at now.
func (p *pacer) noteSent(now time.Time) {
	if late := now.Sub(p.due(p.sent)); late > p.lateMax {
		p.lateMax = late
	}
	p.sent++
}

// noteAcked records that every report below upto was seen acked at now.
func (p *pacer) noteAcked(upto int, now time.Time) {
	for ; p.acked < upto; p.acked++ {
		p.latencyMS = append(p.latencyMS, float64(now.Sub(p.due(p.acked)))/float64(time.Millisecond))
	}
}
