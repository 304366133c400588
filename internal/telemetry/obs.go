package telemetry

import (
	"wlanscale/internal/obs"
)

// Observability for the harvest path. Metric structs here are plain
// value types whose fields are nil until attached to a registry, so an
// un-instrumented Agent or Poller (the zero value) pays nothing — obs
// metrics are no-ops on nil receivers.

// HarvestMetrics counts the backend side of the harvest protocol: poll
// round trips, frames on the wire, and reports received. One instance
// is shared by every poller of a daemon (the counters are atomic).
type HarvestMetrics struct {
	// Polls counts poll round trips started; PollErrors the ones that
	// failed (timeout, corrupt frame, teardown mid-poll).
	Polls, PollErrors *obs.Counter
	// Reports counts reports successfully received and decoded.
	Reports *obs.Counter
	// FramesOut and FramesIn count tunnel frames written (poll, ack)
	// and read (report batches).
	FramesOut, FramesIn *obs.Counter
	// BatchFrames counts v2 delta-coded batch frames received;
	// BatchBytes accumulates their payload bytes, so bytes/report under
	// wire v2 is BatchBytes / Reports.
	BatchFrames, BatchBytes *obs.Counter
	// PollDur is the poll round-trip latency, microseconds.
	PollDur *obs.Histogram
}

// NewHarvestMetrics registers the harvest counters ("harvest.*") on
// reg. A nil registry yields all-nil (no-op) metrics.
func NewHarvestMetrics(reg *obs.Registry) HarvestMetrics {
	return HarvestMetrics{
		Polls:       reg.Counter("harvest.polls"),
		PollErrors:  reg.Counter("harvest.poll_errors"),
		Reports:     reg.Counter("harvest.reports"),
		FramesOut:   reg.Counter("harvest.frames_out"),
		FramesIn:    reg.Counter("harvest.frames_in"),
		BatchFrames: reg.Counter("harvest.batch_frames"),
		BatchBytes:  reg.Counter("harvest.batch_bytes"),
		PollDur:     reg.Histogram("harvest.poll_us", obs.DurationBuckets),
	}
}

// RegisterHealth folds a HarvestHealth counter block into reg as func
// gauges ("harvest.reconnects", "harvest.mac_failures",
// "harvest.corrupt_frames", "harvest.timeouts", "harvest.queue_drops"),
// read from a fresh snapshot at query time. This keeps HarvestHealth's
// error-classification logic (and its existing Snapshot/String API for
// the status query) as the single source of truth while making the
// same numbers queryable alongside every other metric.
func RegisterHealth(reg *obs.Registry, h *HarvestHealth) {
	if reg == nil || h == nil {
		return
	}
	reg.RegisterFunc("harvest.reconnects", func() int64 { return int64(h.Snapshot().Reconnects) })
	reg.RegisterFunc("harvest.mac_failures", func() int64 { return int64(h.Snapshot().MACFailures) })
	reg.RegisterFunc("harvest.corrupt_frames", func() int64 { return int64(h.Snapshot().CorruptFrames) })
	reg.RegisterFunc("harvest.timeouts", func() int64 { return int64(h.Snapshot().Timeouts) })
	reg.RegisterFunc("harvest.queue_drops", func() int64 { return int64(h.Snapshot().QueueDrops) })
	reg.RegisterFunc("harvest.wal_failures", func() int64 { return int64(h.Snapshot().WALFailures) })
	// harvest.errors is the combined hard-error total the health rule
	// engine's harvest-degradation rule watches: one series instead of
	// three keeps the rule (and its hysteresis) judging the sum, not
	// whichever component happened to spike.
	reg.RegisterFunc("harvest.errors", func() int64 {
		s := h.Snapshot()
		return int64(s.MACFailures + s.CorruptFrames + s.Timeouts)
	})
	reg.RegisterFunc("harvest.degraded", func() int64 {
		if h.Snapshot().Degraded {
			return 1
		}
		return 0
	})
}
