// Package obs is the fleet observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket streaming
// histograms) plus a Timer/Span helper for pipeline stage timing. The
// paper's backend only worked at 20,667-network scale because it could
// watch itself — harvest lag, per-AP poll health, and aggregation
// throughput were first-class queryable signals — and obs gives this
// reproduction the same property: the telemetry harvest path, the
// parallel usage-epoch worker pool, and the backend store all publish
// into one Registry that merakid serves over its -debug HTTP listener
// (expvar-style JSON next to net/http/pprof) and its "metrics" query
// command.
//
// Two contracts shape the API. First, the hot path is allocation-free
// and nil-safe: every metric method is a no-op on a nil receiver, and a
// nil *Registry hands out nil metrics, so un-instrumented runs pay
// nothing — not even a time.Now call (StartSpan on a nil histogram
// skips the clock read). Second, metrics are observe-only: nothing in
// the simulation ever reads a metric back, so instrumented and
// un-instrumented runs produce bit-identical output (the determinism
// contract DESIGN.md §8 states and internal/core's obs-invariance test
// pins).
//
// Histogram buckets are fixed at construction. That keeps Observe down
// to one bounded scan plus three atomic adds — no resizing, no
// rebucketing locks — and means a snapshot reader can walk the counts
// without coordinating with writers.
package obs
