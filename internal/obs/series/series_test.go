package series

import (
	"strings"
	"testing"
	"time"

	"wlanscale/internal/obs"
)

// tick returns a deterministic timestamp n seconds after a fixed base.
// Every test drives Sample with these — no real clock in any assertion.
func tick(n int) time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(n) * time.Second)
}

// TestCounterRates pins the core counter semantics: the first tick is a
// baseline (no rate), later ticks record delta/elapsed.
func TestCounterRates(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("ingest.total")
	rec := NewRecorder(reg, Options{Cap: 8})

	c.Add(100)
	rec.Sample(tick(0)) // baseline: absorbs the pre-existing total
	c.Add(30)
	rec.Sample(tick(2)) // 30 over 2s = 15/s
	rec.Sample(tick(4)) // no increment: rate 0

	pts := rec.Last("ingest.total", 10)
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[0].V != 0 {
		t.Errorf("baseline tick rate = %v, want 0", pts[0].V)
	}
	if pts[1].V != 15 {
		t.Errorf("second tick rate = %v, want 15", pts[1].V)
	}
	if pts[2].V != 0 {
		t.Errorf("idle tick rate = %v, want 0", pts[2].V)
	}
	if k, ok := rec.Kind("ingest.total"); !ok || k != obs.KindCounter {
		t.Errorf("Kind = %v/%v, want counter/true", k, ok)
	}
	if !rec.EverActive("ingest.total") {
		t.Error("counter that incremented not EverActive")
	}
}

// TestGaugeRaw: gauges record raw readings, never rates, and a
// never-nonzero gauge is not EverActive.
func TestGaugeRaw(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("pool.devices")
	reg.Gauge("always.zero")
	rec := NewRecorder(reg, Options{Cap: 8})

	g.Set(7)
	rec.Sample(tick(0))
	g.Set(3)
	rec.Sample(tick(1))

	pts := rec.Last("pool.devices", 10)
	if len(pts) != 2 || pts[0].V != 7 || pts[1].V != 3 {
		t.Fatalf("gauge points = %v, want raw 7 then 3", pts)
	}
	if !rec.EverActive("pool.devices") {
		t.Error("nonzero gauge not EverActive")
	}
	if rec.EverActive("always.zero") {
		t.Error("all-zero gauge reported EverActive")
	}
}

// TestFuncGaugeCumulative: a RegisterFunc reader over a cumulative
// total records raw values (the daemon's store.ingests pattern), so
// health rules difference them with RateOfChange.
func TestFuncGaugeCumulative(t *testing.T) {
	reg := obs.NewRegistry()
	var total int64
	reg.RegisterFunc("store.ingests", func() int64 { return total })
	rec := NewRecorder(reg, Options{Cap: 8})

	total = 50
	rec.Sample(tick(0))
	total = 80
	rec.Sample(tick(1))

	pts := rec.Last("store.ingests", 10)
	if len(pts) != 2 || pts[0].V != 50 || pts[1].V != 80 {
		t.Fatalf("func gauge points = %v, want raw 50 then 80", pts)
	}
	if k, _ := rec.Kind("store.ingests"); k != obs.KindGauge {
		t.Errorf("func gauge kind = %v, want gauge", k)
	}
}

// TestHistogramTickDeltas: histogram points carry the tick's own
// count/sum deltas and quantiles over that tick's observations only —
// not lifetime cumulative stats.
func TestHistogramTickDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("flush_us", []int64{10, 100, 1000})
	rec := NewRecorder(reg, Options{Cap: 8})

	h.Observe(5)
	h.Observe(50)
	rec.Sample(tick(0))

	// Second tick: 10 fast observations. Lifetime p99 would sit in the
	// 100 bucket; the tick's own p99 must be 10.
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	rec.Sample(tick(1))

	pts := rec.Last("flush_us", 10)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Count != 2 || pts[0].Sum != 55 {
		t.Errorf("tick 0 count/sum = %d/%d, want 2/55", pts[0].Count, pts[0].Sum)
	}
	if pts[1].Count != 10 || pts[1].Sum != 30 {
		t.Errorf("tick 1 count/sum = %d/%d, want 10/30", pts[1].Count, pts[1].Sum)
	}
	if pts[1].P50 != 10 || pts[1].P99 != 10 {
		t.Errorf("tick 1 p50/p99 = %d/%d, want 10/10 (tick-local quantiles)", pts[1].P50, pts[1].P99)
	}
	if pts[1].V != 10 {
		t.Errorf("tick 1 rate = %v, want 10 obs/s", pts[1].V)
	}

	// Idle tick: zero count, zero quantiles.
	rec.Sample(tick(2))
	last := rec.Last("flush_us", 1)[0]
	if last.Count != 0 || last.P99 != 0 || last.V != 0 {
		t.Errorf("idle histogram tick = %+v, want all-zero", last)
	}
}

// TestRingWraps: the ring keeps exactly Cap points, oldest first.
func TestRingWraps(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g")
	rec := NewRecorder(reg, Options{Cap: 3})
	for i := 0; i < 5; i++ {
		g.Set(int64(i))
		rec.Sample(tick(i))
	}
	pts := rec.Last("g", 10)
	if len(pts) != 3 {
		t.Fatalf("ring holds %d points, want cap 3", len(pts))
	}
	for i, want := range []float64{2, 3, 4} {
		if pts[i].V != want {
			t.Errorf("point %d = %v, want %v", i, pts[i].V, want)
		}
	}
	if n := len(rec.Last("g", 2)); n != 2 {
		t.Errorf("Last(2) returned %d points", n)
	}
}

// TestWindow: Window cuts by timestamp distance from the newest point.
func TestWindow(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g")
	rec := NewRecorder(reg, Options{Cap: 16})
	for i := 0; i < 10; i++ {
		g.Set(int64(i))
		rec.Sample(tick(i * 10)) // points 10s apart
	}
	got := rec.Window("g", 25*time.Second)
	if len(got) != 3 {
		t.Fatalf("Window(25s) = %d points, want 3 (t-20, t-10, t)", len(got))
	}
	if got[0].V != 7 || got[2].V != 9 {
		t.Errorf("window points = %v..%v, want 7..9", got[0].V, got[2].V)
	}
	if rec.Window("missing", time.Minute) != nil {
		t.Error("Window on unknown metric not nil")
	}
}

// TestNilRecorder: every method on a nil recorder is a no-op, matching
// the rest of the obs package.
func TestNilRecorder(t *testing.T) {
	var rec *Recorder
	if NewRecorder(nil, Options{}) != nil {
		t.Fatal("NewRecorder(nil) != nil")
	}
	rec.Sample(tick(0))
	if rec.Ticks() != 0 || rec.Names() != nil || rec.Last("x", 1) != nil {
		t.Error("nil recorder leaked state")
	}
	if rec.EverActive("x") {
		t.Error("nil recorder EverActive")
	}
	if err := rec.WriteText(nil, "x", 1); err == nil {
		t.Error("nil recorder WriteText did not error")
	}
}

// TestWriteText pins the query rendering: scalar and histogram line
// shapes, and the unknown-metric error.
func TestWriteText(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Add(10)
	h := reg.Histogram("h", []int64{10, 100})
	rec := NewRecorder(reg, Options{Cap: 8})
	rec.Sample(tick(0))
	reg.Counter("c").Add(4)
	h.Observe(7)
	rec.Sample(tick(2))

	var b strings.Builder
	if err := rec.WriteText(&b, "c", 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("counter rendered %d lines, want 2", len(lines))
	}
	if want := "v=2.000"; !strings.HasSuffix(lines[1], want) {
		t.Errorf("counter line = %q, want suffix %q", lines[1], want)
	}

	b.Reset()
	if err := rec.WriteText(&b, "h", 1); err != nil {
		t.Fatal(err)
	}
	hline := strings.TrimSpace(b.String())
	for _, f := range []string{"count=1", "sum=7", "p50=10", "p95=10", "p99=10"} {
		if !strings.Contains(hline, f) {
			t.Errorf("histogram line %q missing %q", hline, f)
		}
	}

	if err := rec.WriteText(&b, "nope", 1); err == nil {
		t.Error("unknown metric did not error")
	}
}

// TestSampleNonPositiveElapsed: a tick at the same timestamp as the
// previous one still records but must not divide by zero.
func TestSampleNonPositiveElapsed(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	rec := NewRecorder(reg, Options{Cap: 8})
	c.Add(1)
	rec.Sample(tick(0))
	c.Add(1)
	rec.Sample(tick(0)) // zero elapsed
	pts := rec.Last("c", 10)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[1].V != 0 {
		t.Errorf("zero-elapsed tick rate = %v, want 0", pts[1].V)
	}
}
