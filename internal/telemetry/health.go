package telemetry

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"wlanscale/internal/telemetry/pbwire"
)

// HarvestHealth is the counter block for a harvest endpoint: how often
// the path degraded and how it recovered. One instance can be shared by
// any number of agents and pollers (it is safe for concurrent use);
// merakid surfaces its snapshot in the "status" query.
type HarvestHealth struct {
	mu            sync.Mutex
	reconnects    int
	macFailures   int
	corruptFrames int
	timeouts      int
	walFailures   int
	degraded      bool
	queueDrops    map[string]int
}

// HealthSnapshot is a point-in-time copy of the counters.
type HealthSnapshot struct {
	// Reconnects counts sessions re-established after a failure.
	Reconnects int
	// MACFailures counts frames rejected by HMAC verification.
	MACFailures int
	// CorruptFrames counts frames dropped to framing or decode errors
	// other than MAC failure (oversized length, truncation, malformed
	// report batches).
	CorruptFrames int
	// Timeouts counts frame ops abandoned at the I/O deadline.
	Timeouts int
	// QueueDrops is the fleet-wide total of device-reported queue
	// overflow drops (latest cumulative value per serial, summed).
	QueueDrops int
	// WALFailures counts write-ahead-log appends the durable backend
	// could not complete; Degraded is set while the backend refuses to
	// ack because its disk write path is down (see backend.DurableStore).
	WALFailures int
	Degraded    bool
}

// String renders the snapshot as the status line merakid prints.
func (s HealthSnapshot) String() string {
	return fmt.Sprintf("reconnects=%d mac_failures=%d corrupt_frames=%d timeouts=%d queue_drops=%d wal_failures=%d degraded=%t",
		s.Reconnects, s.MACFailures, s.CorruptFrames, s.Timeouts, s.QueueDrops, s.WALFailures, s.Degraded)
}

// AddReconnect records one re-established session.
func (h *HarvestHealth) AddReconnect() {
	h.mu.Lock()
	h.reconnects++
	h.mu.Unlock()
}

// AddWALFailure records one failed write-ahead-log append.
func (h *HarvestHealth) AddWALFailure() {
	h.mu.Lock()
	h.walFailures++
	h.mu.Unlock()
}

// SetDegraded flips the degraded read-only flag the durable backend
// raises when its disk write path fails.
func (h *HarvestHealth) SetDegraded(v bool) {
	h.mu.Lock()
	h.degraded = v
	h.mu.Unlock()
}

// SetQueueDrops records a device's latest cumulative overflow-drop
// count, as piggybacked on its report frames.
func (h *HarvestHealth) SetQueueDrops(serial string, n int) {
	h.mu.Lock()
	if h.queueDrops == nil {
		h.queueDrops = make(map[string]int)
	}
	if n > h.queueDrops[serial] {
		h.queueDrops[serial] = n
	}
	h.mu.Unlock()
}

// Observe classifies a harvest-path error into the counter block.
// Ordinary connection teardown (EOF, closed connections) is not
// counted: it shows up as a reconnect instead.
func (h *HarvestHealth) Observe(err error) {
	if err == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var ne net.Error
	switch {
	case errors.Is(err, ErrBadMAC):
		h.macFailures++
	case errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()):
		h.timeouts++
	case errors.Is(err, ErrFrameTooBig), errors.Is(err, ErrBadFrameType),
		errors.Is(err, ErrNotHello), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, pbwire.ErrTruncated), errors.Is(err, pbwire.ErrOverflow),
		errors.Is(err, pbwire.ErrBadWireType), errors.Is(err, pbwire.ErrDictOverflow),
		errors.Is(err, pbwire.ErrBadDictRef), errors.Is(err, ErrBadWireVersion),
		errors.Is(err, ErrBadMACEntry), errors.Is(err, ErrTrailingBytes):
		h.corruptFrames++
	}
}

// Snapshot copies the current counters.
func (h *HarvestHealth) Snapshot() HealthSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HealthSnapshot{
		Reconnects:    h.reconnects,
		MACFailures:   h.macFailures,
		CorruptFrames: h.corruptFrames,
		Timeouts:      h.timeouts,
		WALFailures:   h.walFailures,
		Degraded:      h.degraded,
	}
	for _, n := range h.queueDrops {
		s.QueueDrops += n
	}
	return s
}
