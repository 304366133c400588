package trace

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"wlanscale/internal/rng"
)

// ID identifies one traced report end to end. IDs are 64-bit values
// drawn from a seeded rng stream; zero is reserved for "untraced", so a
// report whose wire encoding lacks the trace field decodes to the
// untraced ID.
type ID uint64

// String renders the ID as 16 lowercase hex digits, the form the
// merakid "trace <id>" query accepts.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the hex form produced by String. A leading "0x" is
// tolerated.
func ParseID(s string) (ID, error) {
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q", s)
	}
	return ID(v), nil
}

// Stage is one tier of the harvest pipeline. Stages double as span IDs:
// a report traverses each stage at most once, so the span tree is the
// fixed chain agent.enqueue -> tunnel.write -> daemon.read ->
// store.ingest -> epoch.merge and the parent of stage s is stage s-1.
type Stage uint8

// The pipeline stages, in traversal order.
const (
	// StageAgentEnqueue covers building and queueing the report on the
	// device (BuildReport + Marshal + queue append).
	StageAgentEnqueue Stage = 1
	// StageTunnelWrite covers the report's time in the agent queue until
	// it is put on the wire in a report batch — the span that grows when
	// the backend is unreachable and the queue drains late.
	StageTunnelWrite Stage = 2
	// StageDaemonRead covers the backend poll round trip that delivered
	// the report (frame read + decode).
	StageDaemonRead Stage = 3
	// StageStoreIngest covers folding the report into the backend store.
	StageStoreIngest Stage = 4
	// StageEpochMerge covers folding the report's per-network partial
	// store into the epoch store (offline pipeline only).
	StageEpochMerge Stage = 5
)

var stageNames = [...]string{
	StageAgentEnqueue: "agent.enqueue",
	StageTunnelWrite:  "tunnel.write",
	StageDaemonRead:   "daemon.read",
	StageStoreIngest:  "store.ingest",
	StageEpochMerge:   "epoch.merge",
}

// String returns the dotted stage name ("agent.enqueue").
func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return fmt.Sprintf("stage.%d", uint8(s))
}

// SpanID returns the stage's span ID within its trace.
func (s Stage) SpanID() uint32 { return uint32(s) }

// Parent returns the parent stage's span ID (0 for the root stage).
func (s Stage) Parent() uint32 {
	if s <= StageAgentEnqueue {
		return 0
	}
	return uint32(s) - 1
}

// StageByName maps a dotted stage name back to its Stage (0 if
// unknown), used when reloading flight-recorder dumps.
func StageByName(name string) Stage {
	for s, n := range stageNames {
		if n == name {
			return Stage(s)
		}
	}
	return 0
}

// Tracer hands out deterministic trace IDs and records span events into
// a flight recorder. A nil Tracer is the disabled configuration: every
// method is a no-op, inert spans never read the clock, and the hot path
// pays only a nil check.
type Tracer struct {
	rec  *Recorder
	seed uint64
	// threshold implements sampling as a pure function of the ID: an ID
	// is sampled iff 0 < id <= threshold. Every tier computes the same
	// answer for the same ID with no coordination.
	threshold uint64
}

// New creates a Tracer recording into rec, drawing IDs from streams
// rooted at seed, sampling the given fraction of reports (clamped to
// [0,1]; 1 samples everything).
func New(rec *Recorder, seed uint64, sample float64) *Tracer {
	t := &Tracer{rec: rec, seed: seed}
	switch {
	case sample >= 1:
		t.threshold = math.MaxUint64
	case sample <= 0:
		t.threshold = 0
	default:
		t.threshold = uint64(sample * float64(math.MaxUint64))
	}
	return t
}

// Recorder returns the tracer's flight recorder (nil on a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Sampled reports whether id is in the sampled fraction. The untraced
// ID (0) is never sampled.
func (t *Tracer) Sampled(id ID) bool {
	return t != nil && id != 0 && uint64(id) <= t.threshold
}

// IDs derives the deterministic ID stream for one entity (an agent
// serial, a network). The stream depends only on (seed, label) — never
// on scheduling or on other labels — so a fleet's trace IDs reproduce
// run over run, and the parallel epoch pipeline assigns identical IDs
// for every worker count.
func (t *Tracer) IDs(label string) *IDStream {
	if t == nil {
		return nil
	}
	return &IDStream{t: t, src: rng.New(t.seed).Split("trace").Split(label)}
}

// IDStream is one entity's private trace-ID sequence. Not safe for
// concurrent use; derive one per agent or per network. A nil stream
// yields only untraced IDs.
type IDStream struct {
	t   *Tracer
	src *rng.Source
}

// Next draws the next ID and reports whether it is sampled. Every call
// consumes exactly one draw whether or not the ID is sampled, so the
// assignment of IDs to reports is independent of the sampling rate.
func (s *IDStream) Next() (ID, bool) {
	if s == nil {
		return 0, false
	}
	v := s.src.Uint64()
	if v == 0 {
		// Zero means "untraced" on the wire; remap the one-in-2^64 draw
		// deterministically instead of consuming an extra one.
		v = 1
	}
	return ID(v), s.t.Sampled(ID(v))
}

// Span is one stage of one trace in flight. The zero Span (from an
// unsampled or nil Start) is inert: End records nothing and the clock
// is never read.
type Span struct {
	t     *Tracer
	ev    Event
	start time.Time
}

// Start opens a span for the given trace and stage. If the tracer is
// nil or the ID unsampled, the returned span is inert.
func (t *Tracer) Start(id ID, stage Stage) Span {
	if !t.Sampled(id) {
		return Span{}
	}
	now := time.Now()
	return Span{
		t: t,
		ev: Event{
			Trace:   id,
			Span:    stage.SpanID(),
			Parent:  stage.Parent(),
			Stage:   stage.String(),
			StartUS: now.UnixMicro(),
		},
		start: now,
	}
}

// SetSerial attaches the reporting device's serial.
func (s *Span) SetSerial(serial string) {
	if s.t != nil {
		s.ev.Serial = serial
	}
}

// SetSeq attaches the report's sequence number.
func (s *Span) SetSeq(seq uint64) {
	if s.t != nil {
		s.ev.Seq = seq
	}
}

// SetRetries records how many delivery attempts preceded this one.
func (s *Span) SetRetries(n int) {
	if s.t != nil {
		s.ev.Retries = n
	}
}

// SetFault attaches a fault-injection annotation (see internal/faultnet).
func (s *Span) SetFault(fault string) {
	if s.t != nil {
		s.ev.Fault = fault
	}
}

// SetErr records the error that ended the stage, if any.
func (s *Span) SetErr(err error) {
	if s.t != nil && err != nil {
		s.ev.Err = err.Error()
	}
}

// End closes the span and records it into the flight recorder.
func (s *Span) End() { s.EndEvent() }

// EndEvent closes the span, records it, and returns the recorded event
// — for callers that also ship the event elsewhere (the agent re-sends
// its spans with each report batch). Inert spans return the zero Event.
func (s *Span) EndEvent() Event {
	if s.t == nil {
		return Event{}
	}
	s.ev.DurUS = time.Since(s.start).Microseconds()
	s.t.rec.Record(s.ev)
	return s.ev
}

// RecordEvent records a pre-built event — how span events shipped over
// the tunnel from an agent enter the daemon's recorder. Unsampled and
// untraced events are dropped, so a daemon with a lower sampling rate
// than its agents down-samples consistently.
func (t *Tracer) RecordEvent(ev Event) {
	if !t.Sampled(ev.Trace) {
		return
	}
	t.rec.Record(ev)
}
