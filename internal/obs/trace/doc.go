// Package trace is the per-report provenance layer on top of the
// internal/obs metrics registry. Where obs counters say how much the
// pipeline did, trace says which report went where and why it was slow:
// every sampled telemetry report carries a deterministic trace ID from
// the agent that built it through the tunnel wire format, the daemon's
// poll loop, the backend store, and the epoch merge, producing a
// parent/child span tree (agent.enqueue -> tunnel.write -> daemon.read
// -> store.ingest -> epoch.merge) with per-span duration, retry count,
// and fault-injection annotations.
//
// Trace IDs are drawn from the seeded rng stream (never wall-clock
// randomness), so a given seed always traces the same reports; the
// sampling decision is a pure function of the ID, so every tier agrees
// on what is sampled without coordination. Span events land in a
// bounded, lock-free flight recorder (a ring of the last N events) that
// can be dumped as JSON on demand, on anomaly triggers, or on SIGQUIT.
// Like everything in obs, tracing is observe-only: stdout and epoch
// digests are bit-identical with tracing on or off (pinned by
// TestRunUsageEpochObsInvariance), and the nil *Tracer / nil *Recorder
// are free no-ops that never read the clock.
package trace
