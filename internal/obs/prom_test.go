package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestHistogramQuantiles pins the documented upper-bound semantics of
// Quantile at the common p50/p95/p99 read points: the returned value
// is the bound of the bucket holding the rank-th observation, never
// less than the true quantile, and at most one bucket width above it.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})

	// 90 observations in (0,10], 9 in (10,100], 1 in (100,1000]:
	// p50 and p90 land in the first bucket, p95 and p99 in the second,
	// p100 in the third.
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(500)

	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 10},
		{0.90, 10},
		{0.95, 100},
		{0.99, 100},
		{1.00, 1000},
	}
	snap := h.Snapshot()
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
		if got := snap.Quantile(c.q); got != c.want {
			t.Fatalf("snapshot Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	// The live walk reads the atomics in place: no snapshot copy.
	if n := testing.AllocsPerRun(100, func() { h.Quantile(0.99) }); n != 0 {
		t.Fatalf("Quantile allocates %v times per call, want 0", n)
	}

	// The estimate is an upper bound on the true quantile: the true p50
	// here is 5, the reported 10 — within one bucket width, never below.
	if got, truth := h.Quantile(0.5), int64(5); got < truth {
		t.Fatalf("Quantile(0.5) = %d understates true quantile %d", got, truth)
	}
}

// TestHistogramQuantileEdges covers the degenerate shapes: an empty
// histogram, a tiny q clamped to rank 1, and the +Inf bucket floor.
func TestHistogramQuantileEdges(t *testing.T) {
	if got := NewHistogram([]int64{10}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", got)
	}

	h := NewHistogram([]int64{10, 100})
	h.Observe(5)
	if got := h.Quantile(0.0001); got != 10 {
		t.Fatalf("tiny-q Quantile = %d, want rank-1 bucket bound 10", got)
	}

	// An observation past every finite bound lands in +Inf; the
	// reported quantile floors at the largest finite bound.
	h.Observe(5000)
	if got := h.Quantile(1.0); got != 100 {
		t.Fatalf("+Inf-bucket Quantile = %d, want floor 100", got)
	}

	// No finite buckets at all: count/sum only, quantile is 0.
	inf := NewHistogram(nil)
	inf.Observe(42)
	if got := inf.Quantile(0.5); got != 0 {
		t.Fatalf("boundless histogram Quantile = %d, want 0", got)
	}
}

// TestHistogramEmptyMean: an empty histogram reports mean 0, not NaN —
// series points and watch lines render it directly.
func TestHistogramEmptyMean(t *testing.T) {
	h := NewHistogram([]int64{10})
	if got := h.Mean(); got != 0 {
		t.Fatalf("empty histogram Mean = %v, want 0", got)
	}
	h.Observe(8)
	if got := h.Mean(); got != 8 {
		t.Fatalf("Mean after one observation = %v, want 8", got)
	}
}

// TestWriteProm checks the Prometheus text rendering: sanitized names,
// a TYPE metadata line directly preceding each family's samples (the
// contract cluster.MergeProm relies on), cumulative le buckets ending
// at +Inf, and the _sum/_count pair.
func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("harvest.polls").Add(3)
	r.Gauge("pool.devices").Set(7)
	r.RegisterFunc("proc.uptime_s", func() int64 { return 12 })
	h := r.Histogram("store.ingest_us", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	r.WriteProm(&buf)
	got := buf.String()

	want := strings.Join([]string{
		"# TYPE harvest_polls counter",
		"harvest_polls 3",
		"# TYPE pool_devices gauge",
		"pool_devices 7",
		"# TYPE proc_uptime_s gauge",
		"proc_uptime_s 12",
		"# TYPE store_ingest_us histogram",
		`store_ingest_us_bucket{le="10"} 1`,
		`store_ingest_us_bucket{le="100"} 2`,
		`store_ingest_us_bucket{le="+Inf"} 3`,
		"store_ingest_us_sum 5055",
		"store_ingest_us_count 3",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("WriteProm output:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromName pins the sanitizer's corner cases.
func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"epoch.worker.02.networks", "epoch_worker_02_networks"},
		{"trace-dumps", "trace_dumps"},
		{"2fast", "_2fast"},
		{"ok_name:x", "ok_name:x"},
		{"weird µ chars", "weirdchars"},
	}
	for _, c := range cases {
		if got := promName(c.in); got != c.want {
			t.Fatalf("promName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
