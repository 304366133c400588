package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wlanscale/internal/obs"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/rng"
)

// Agent is the AP-side reporting agent: it queues reports locally and
// serves them to the backend when polled. If the tunnel drops, client
// traffic continues and reports accumulate until the backend reconnects
// and drains the queue — the failure mode Section 2 describes.
type Agent struct {
	Serial string
	Key    []byte
	// QueueLimit bounds the offline queue; oldest reports are dropped
	// beyond it, as a real device's flash budget forces.
	QueueLimit int
	// Timeout bounds every tunnel frame op (see Tunnel.SetTimeout). The
	// backend must poll more often than this or the agent treats the
	// session as dead and reconnects. Zero disables deadlines.
	Timeout time.Duration
	// BackoffBase and BackoffMax tune the reconnect backoff; zero
	// values default to 50ms and 5s.
	BackoffBase, BackoffMax time.Duration
	// Health, when set, receives the agent's reconnect and error
	// counters. Safe to share one instance across a fleet.
	Health *HarvestHealth
	// Metrics, when attached (NewAgentMetrics), counts dials, retries,
	// backoff waits, and queue pressure. The zero value is a no-op.
	Metrics AgentMetrics
	// Wire is the maximum wire version the agent announces (WireV2 opts
	// into delta-coded batch frames); zero or WireV1 keeps the legacy
	// per-report protocol byte-identical. A v2 hello rejected by a
	// legacy backend triggers a sticky per-process fallback to v1 on the
	// next session.
	Wire byte
	// BatchBytes is the v2 batch payload budget: the adaptive batcher
	// flushes a batch rather than grow past it. Zero defaults to 64 KiB.
	BatchBytes int
	// BatchMaxAge is the queue-age override: when the oldest queued
	// report has waited longer than this, the size budget is waived so a
	// backlog drains at full poll width instead of trickling out in
	// budget-sized batches. Zero defaults to 30s.
	BatchMaxAge time.Duration
	// Dial, when set, replaces net.Dial for the reconnect loops —
	// merakisim's -chaos-corrupt and the merakid monitoring test use it
	// to route sessions through a faultnet wrapper. Nil dials plain
	// TCP.
	Dial func(addr string) (net.Conn, error)

	mu      sync.Mutex
	queue   [][]byte
	enqUS   []int64   // wall-clock enqueue micros, parallel to queue
	reps    []*Report // decoded-report cache, parallel to queue; nil entries decode lazily
	dropped int
	seq     uint64
	// wireFallback latches when a v2 session died before its first poll
	// — the legacy-backend signature — and pins later sessions to v1.
	wireFallback bool

	// Tracing state (EnableTrace). meta parallels queue whenever tracing
	// is on, carrying each queued report's trace ID, enqueue time, and
	// delivery-attempt count so tunnel.write spans can report queue-dwell
	// time and retries.
	tracer   *trace.Tracer
	traceIDs *trace.IDStream
	meta     []queueMeta
}

// queueMeta is the per-queued-report trace bookkeeping.
type queueMeta struct {
	id       trace.ID
	seq      uint64
	enq      trace.Event // the report's agent.enqueue span, re-shipped with each batch
	enqUS    int64       // wall-clock microseconds when the report was queued
	attempts int         // times this report has been put on the wire
}

// NewAgent creates an agent for a device. The default 30s frame timeout
// assumes the backend's poll cadence is well under 30s (merakid
// defaults to 2s); slower deployments should raise Timeout.
func NewAgent(serial string, key []byte) *Agent {
	return &Agent{Serial: serial, Key: key, QueueLimit: 4096, Timeout: 30 * time.Second}
}

// EnableTrace attaches a tracer: every subsequent report gets a
// deterministic trace ID drawn from the agent's private ID stream
// (keyed by serial), sampled reports record agent.enqueue/tunnel.write
// spans, and those spans ride each report batch to the backend.
// Reports queued before EnableTrace stay untraced.
func (a *Agent) EnableTrace(t *trace.Tracer) {
	if t == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tracer = t
	a.traceIDs = t.IDs("agent/" + a.Serial)
	a.meta = make([]queueMeta, len(a.queue))
}

// Enqueue queues one report for upload, stamping its sequence number.
// The agent retains r until it is acked or dropped (the v2 batcher
// encodes from it directly, skipping a marshal round-trip), so the
// caller must not modify the report after Enqueue returns.
func (a *Agent) Enqueue(r *Report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	r.SeqNo = a.seq
	var sp trace.Span
	var m queueMeta
	if a.traceIDs != nil {
		id, sampled := a.traceIDs.Next()
		r.TraceID = uint64(id)
		m.id = id
		m.seq = a.seq
		if sampled {
			sp = a.tracer.Start(id, trace.StageAgentEnqueue)
			sp.SetSerial(a.Serial)
			sp.SetSeq(a.seq)
		}
	}
	a.queue = append(a.queue, r.Marshal())
	a.enqUS = append(a.enqUS, time.Now().UnixMicro())
	a.reps = append(a.reps, r)
	if a.traceIDs != nil {
		m.enq = sp.EndEvent()
		m.enqUS = m.enq.StartUS + m.enq.DurUS
		a.meta = append(a.meta, m)
	}
	a.Metrics.Enqueued.Inc()
	if a.QueueLimit > 0 && len(a.queue) > a.QueueLimit {
		over := len(a.queue) - a.QueueLimit
		a.queue = a.queue[over:]
		a.enqUS = a.enqUS[over:]
		a.reps = a.reps[over:]
		a.dropped += over
		a.Metrics.Dropped.Add(int64(over))
		if a.meta != nil {
			a.meta = a.meta[over:]
		}
	}
}

// QueueLen returns the number of queued reports.
func (a *Agent) QueueLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// Dropped returns the number of reports lost to queue overflow.
func (a *Agent) Dropped() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

func (a *Agent) peek(max int) [][]byte {
	out, _ := a.peekBatch(max, "")
	return out
}

// peekBatch copies up to max queued reports and, when tracing, builds
// their tunnel.write span events: one per sampled report, measuring
// queue dwell (enqueue to wire) with the delivery-attempt count and the
// connection's fault profile attached. Each call counts as one delivery
// attempt, so a batch re-sent after a dropped session ships the same
// spans with Retries incremented (the recorder keeps the latest).
func (a *Agent) peekBatch(max int, fault string) ([][]byte, []trace.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if max > len(a.queue) {
		max = len(a.queue)
	}
	out := make([][]byte, max)
	copy(out, a.queue[:max])
	return out, a.spanEventsLocked(max, fault)
}

// spanEventsLocked builds the tunnel.write span events for the first n
// queued reports (those about to ship), counting one delivery attempt
// each. Caller holds a.mu.
func (a *Agent) spanEventsLocked(n int, fault string) []trace.Event {
	if a.traceIDs == nil {
		return nil
	}
	var spans []trace.Event
	var nowUS int64
	for i := 0; i < n; i++ {
		m := &a.meta[i]
		if a.tracer.Sampled(m.id) {
			if nowUS == 0 {
				nowUS = time.Now().UnixMicro()
			}
			if m.enq.Trace != 0 {
				// Re-ship the enqueue span too: the daemon only learns
				// about agent-side spans from batches that land.
				spans = append(spans, m.enq)
			}
			ev := trace.Event{
				Trace:   m.id,
				Span:    trace.StageTunnelWrite.SpanID(),
				Parent:  trace.StageTunnelWrite.Parent(),
				Stage:   trace.StageTunnelWrite.String(),
				Serial:  a.Serial,
				Seq:     m.seq,
				StartUS: m.enqUS,
				DurUS:   nowUS - m.enqUS,
				Retries: m.attempts,
				Fault:   fault,
			}
			spans = append(spans, ev)
			// Mirror into the agent-side recorder so an agent process
			// has its own view even if the batch never lands.
			a.tracer.RecordEvent(ev)
		}
		m.attempts++
	}
	return spans
}

func (a *Agent) drop(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > len(a.queue) {
		n = len(a.queue)
	}
	a.queue = a.queue[n:]
	a.enqUS = a.enqUS[n:]
	a.reps = a.reps[n:]
	if a.meta != nil {
		a.meta = a.meta[n:]
	}
}

// queueSnapshot is the gob-persisted agent state — what a real device
// keeps on flash so a reboot resumes where it left off.
type queueSnapshot struct {
	Serial  string
	Seq     uint64
	Dropped int
	Queue   [][]byte
}

// queueMagic opens every queue snapshot; the trailing byte is the
// format version. The fixed header that follows it — queued-report
// count, then a CRC32-C of the gob payload — lets LoadQueue tell a
// clean snapshot from flash corruption, and still account the lost
// reports when the payload is unreadable.
var queueMagic = [8]byte{'W', 'L', 'Q', 'S', 'N', 'P', 'v', '1'}

const queueHeaderSize = 16 // magic(8) + count(4) + crc(4)

var queueCRCTable = crc32.MakeTable(crc32.Castagnoli)

// SaveQueue persists the unacknowledged queue, the sequence counter,
// and the overflow-drop counter, framed by a versioned header and a
// payload checksum. Acknowledged reports are already gone from the
// queue, so a restore never re-delivers more than the backend's
// (serial, seqno) dedup absorbs.
func (a *Agent) SaveQueue(w io.Writer) error {
	a.mu.Lock()
	snap := queueSnapshot{Serial: a.Serial, Seq: a.seq, Dropped: a.dropped}
	snap.Queue = make([][]byte, len(a.queue))
	copy(snap.Queue, a.queue)
	a.mu.Unlock()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return err
	}
	hdr := make([]byte, queueHeaderSize)
	copy(hdr, queueMagic[:])
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(snap.Queue)))
	binary.BigEndian.PutUint32(hdr[12:], crc32.Checksum(payload.Bytes(), queueCRCTable))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// LoadQueue restores a saved queue after a reboot, replacing the
// current queue. A corrupt or truncated snapshot — bad magic, short
// file, checksum mismatch, undecodable gob — does not error the agent
// out of its durable-queue semantics: the agent starts with an empty
// queue and the header's report count (when readable) is added to
// Dropped, so the loss is accounted like any other queue drop. Only a
// snapshot that decodes cleanly but belongs to another device is
// rejected with an error. The sequence counter only moves forward:
// restoring a stale snapshot must not re-issue sequence numbers that
// newer reports may already have used, or the backend would dedup
// fresh data away.
func (a *Agent) LoadQueue(r io.Reader) error {
	hdr := make([]byte, queueHeaderSize)
	lostCount := 0
	corrupt := func() error {
		a.mu.Lock()
		a.queue = nil
		a.enqUS = nil
		a.reps = nil
		a.dropped += lostCount
		if a.meta != nil {
			a.meta = nil
		}
		a.mu.Unlock()
		a.Metrics.Dropped.Add(int64(lostCount))
		return nil
	}
	if _, err := io.ReadFull(r, hdr); err != nil {
		return corrupt()
	}
	if [8]byte(hdr[:8]) != queueMagic {
		return corrupt()
	}
	lostCount = int(binary.BigEndian.Uint32(hdr[8:]))
	wantCRC := binary.BigEndian.Uint32(hdr[12:])
	payload, err := io.ReadAll(r)
	if err != nil {
		return corrupt()
	}
	if crc32.Checksum(payload, queueCRCTable) != wantCRC {
		return corrupt()
	}
	var snap queueSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return corrupt()
	}
	if snap.Serial != "" && snap.Serial != a.Serial {
		return fmt.Errorf("telemetry: queue snapshot is for %q, agent is %q", snap.Serial, a.Serial)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queue = snap.Queue
	// Zero enqueue times read as ancient, so a restored backlog trips
	// the batch-age override and drains at full poll width. Restored
	// entries have no decoded-report cache; buildBatch decodes lazily.
	a.enqUS = make([]int64, len(a.queue))
	a.reps = make([]*Report, len(a.queue))
	a.dropped = snap.Dropped
	if a.traceIDs != nil {
		// Restored reports keep the trace IDs baked into their bytes, but
		// the agent-side span bookkeeping did not survive the reboot;
		// zero meta means no tunnel.write spans for them.
		a.meta = make([]queueMeta, len(a.queue))
	}
	if snap.Seq > a.seq {
		a.seq = snap.Seq
	}
	return nil
}

// wireVersion returns the wire version the next session should
// announce: the configured maximum, demoted to v1 once the fallback
// latch has tripped.
func (a *Agent) wireVersion() byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Wire >= WireV2 && !a.wireFallback {
		return WireV2
	}
	return WireV1
}

// noteFallback latches the sticky v1 fallback after a v2 hello was
// rejected: the session died before the backend ever polled, which is
// what a legacy backend's handshake rejection looks like from here.
func (a *Agent) noteFallback() {
	a.mu.Lock()
	latched := !a.wireFallback
	a.wireFallback = true
	a.mu.Unlock()
	if latched {
		a.Metrics.WireFallbacks.Inc()
	}
}

// ServeConn runs the agent protocol over an established connection.
// Every frame op is bounded by a.Timeout, so a stalled backend costs at
// most one timeout, never a hung goroutine.
//
// A WireV2 agent opens with frameHelloV2 and answers each poll in the
// format the poll requests: framePoll gets a legacy frameReports (the
// backend negotiated v1), framePollV2 gets a delta-coded frameBatch. If
// a v2 session dies before the first poll, the agent assumes a legacy
// backend rejected the hello and falls back to v1 for subsequent
// sessions (sticky for the process lifetime).
func (a *Agent) ServeConn(conn net.Conn) error {
	t, err := NewTunnel(conn, a.Key)
	if err != nil {
		conn.Close()
		return err
	}
	defer t.Close()
	t.SetTimeout(a.Timeout)
	fault := connFaultProfile(conn)
	wire := a.wireVersion()
	hello := &Message{Type: frameHello, Serial: a.Serial}
	if wire >= WireV2 {
		hello = &Message{Type: frameHelloV2, Wire: wire, Serial: a.Serial}
	}
	polled := false
	sessionErr := func(err error) error {
		if wire >= WireV2 && !polled {
			a.noteFallback()
		}
		return err
	}
	if err := t.WriteFrame(EncodeMessage(hello)); err != nil {
		return sessionErr(err)
	}
	for {
		raw, err := t.ReadFrame()
		if err != nil {
			return sessionErr(err)
		}
		m, err := DecodeMessage(raw)
		if err != nil {
			return sessionErr(err)
		}
		switch m.Type {
		case framePoll:
			polled = true
			batch, spans := a.peekBatch(int(m.Max), fault)
			if err := t.WriteFrame(EncodeMessage(&Message{
				Type: frameReports, Reports: batch, Dropped: uint32(a.Dropped()), Spans: spans,
			})); err != nil {
				return err
			}
		case framePollV2:
			polled = true
			payload, err := a.buildBatch(int(m.Max), fault)
			if err != nil {
				return err
			}
			if err := t.WriteFrame(append([]byte{frameBatch}, payload...)); err != nil {
				return err
			}
			a.Metrics.BatchesSent.Inc()
		case frameAck:
			a.drop(int(m.Count))
		default:
			return sessionErr(ErrBadFrameType)
		}
	}
}

// buildBatch assembles one v2 batch payload from the head of the queue:
// up to max reports, delta-coded under the BatchBytes budget unless the
// oldest report's age trips the BatchMaxAge override. The remaining
// queue depth rides the frame as the backpressure hint.
func (a *Agent) buildBatch(max int, fault string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if max > len(a.queue) {
		max = len(a.queue)
	}
	budget := a.BatchBytes
	if budget == 0 {
		budget = 64 << 10
	}
	maxAge := a.BatchMaxAge
	if maxAge == 0 {
		maxAge = 30 * time.Second
	}
	aged := false
	if max > 0 && time.Now().UnixMicro()-a.enqUS[0] > maxAge.Microseconds() {
		aged = true
		budget = 0 // age override: drain at full poll width
	}
	be := NewBatchEncoder(budget)
	sized := false
	for i := 0; i < max; i++ {
		r := a.reps[i]
		if r == nil {
			var err error
			if r, err = UnmarshalReport(a.queue[i]); err != nil {
				// A queue entry that no longer decodes cannot ever ship;
				// if it heads the queue it would wedge the agent, so drop
				// and account it. Mid-batch, just stop — the next poll
				// retries.
				if i == 0 {
					a.queue = a.queue[1:]
					a.enqUS = a.enqUS[1:]
					a.reps = a.reps[1:]
					if a.meta != nil {
						a.meta = a.meta[1:]
					}
					a.dropped++
					a.Metrics.Dropped.Inc()
				}
				break
			}
			a.reps[i] = r
		}
		if !be.Add(r) {
			sized = true
			break
		}
	}
	if sized {
		a.Metrics.BatchSizeFlushes.Inc()
	}
	if aged && be.Len() > 0 {
		a.Metrics.BatchAgeFlushes.Inc()
	}
	spans := a.spanEventsLocked(be.Len(), fault)
	depth := len(a.queue) - be.Len()
	return be.Finish(uint32(a.dropped), uint32(depth), spans), nil
}

// RunWithReconnect keeps the agent connected to addr, retrying with
// jittered, capped exponential backoff, until stop is closed — closing
// stop also tears down an in-flight session.
func (a *Agent) RunWithReconnect(addr string, stop <-chan struct{}) {
	a.runReconnect([]string{addr}, stop)
}

// RunMultiHome keeps the agent connected to one of two datacenters,
// alternating on every failure — the paper's dual-DC deployment, where
// a device falls back to its secondary when the primary is unreachable
// and returns on the next failure. Backoff and jitter behave as in
// RunWithReconnect.
func (a *Agent) RunMultiHome(primary, secondary string, stop <-chan struct{}) {
	a.runReconnect([]string{primary, secondary}, stop)
}

// RunAddrs generalizes RunMultiHome to any failover chain: the agent
// connects to addrs[0], moves to the next address on every session
// failure, and wraps around — the cluster deployment shape, where an
// agent's chain is its network's shard (by the cluster shard map)
// followed by whatever fallbacks the operator configured. Backoff and
// jitter behave as in RunWithReconnect. An empty addrs returns
// immediately.
func (a *Agent) RunAddrs(addrs []string, stop <-chan struct{}) {
	if len(addrs) == 0 {
		return
	}
	a.runReconnect(addrs, stop)
}

// reconnectJitter derives the agent's private jitter stream from its
// serial, so a fleet restarted at once does not reconnect in lockstep
// (no thundering herd after a backend restart) yet every run of one
// agent is deterministic.
func reconnectJitter(serial string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(serial))
	return rng.New(h.Sum64()).Split("reconnect-jitter")
}

func (a *Agent) runReconnect(addrs []string, stop <-chan struct{}) {
	base := a.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := a.BackoffMax
	if max <= 0 {
		max = 5 * time.Second
	}
	jitter := reconnectJitter(a.Serial)
	backoff := base
	sessions := 0
	for attempt := 0; ; attempt++ {
		select {
		case <-stop:
			return
		default:
		}
		a.Metrics.Dials.Inc()
		dial := a.Dial
		if dial == nil {
			dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		conn, err := dial(addrs[attempt%len(addrs)])
		if err == nil {
			sessions++
			if sessions > 1 && a.Health != nil {
				a.Health.AddReconnect()
			}
			done := make(chan struct{})
			if stop != nil {
				go func() {
					select {
					case <-stop:
						conn.Close()
					case <-done:
					}
				}()
			}
			err = a.ServeConn(conn)
			close(done)
		}
		if err == nil {
			return
		}
		if a.Health != nil {
			a.Health.Observe(err)
		}
		a.Metrics.Retries.Inc()
		// Sleep backoff scaled by a jitter factor in [0.5, 1.5).
		wait := time.Duration(float64(backoff) * (0.5 + jitter.Float64()))
		a.Metrics.BackoffWaits.Inc()
		a.Metrics.BackoffUS.Add(wait.Microseconds())
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
		if backoff < max {
			backoff *= 2
			if backoff > max {
				backoff = max
			}
		}
	}
}

// Poller is the backend side of the harvest protocol: it owns one
// device connection and pulls queued reports.
type Poller struct {
	tunnel *Tunnel
	// Serial is the device's announced serial.
	Serial string
	// agentWire is the maximum wire version the device announced in its
	// hello; wire is the session's negotiated version (NegotiateWire),
	// defaulting to v1.
	agentWire, wire byte
	// queueDepth is the device's remaining queue depth from the last v2
	// batch — the backpressure hint merakid's drain mode reads.
	queueDepth atomic.Uint32
	// Health, when set, receives the poller's error counters and the
	// device's piggybacked queue-drop totals.
	Health *HarvestHealth
	// Metrics, when attached (NewHarvestMetrics), counts polls, frames,
	// and reports. The zero value is a no-op.
	Metrics HarvestMetrics
	// Trace, when set, records a daemon.read span for every sampled
	// report a poll delivers and folds the agent-side spans riding the
	// batch into the daemon's flight recorder.
	Trace *trace.Tracer
	// BeforeAck, when set, runs after a poll's reports are decoded and
	// before the ack frame is sent, with the decoded reports and their
	// raw wire bytes. An error aborts the poll without acking, so the
	// device keeps the batch queued and re-delivers it — the hook is
	// where a durable backend appends to its write-ahead log (and
	// ingests), making "acked" imply "recoverable" across process
	// death.
	BeforeAck func(reports []*Report, raw [][]byte) error
	// BeforeAckFrame, when set, replaces BeforeAck on v2 polls: it runs
	// with the decoded batch and the raw batch payload so a durable
	// backend can append the whole frame to its write-ahead log as one
	// record instead of re-marshaling per report. When nil, v2 polls
	// fall back to BeforeAck with nil raw.
	BeforeAckFrame func(reports []*Report, payload []byte) error
}

// connFaultProfile surfaces a faultnet connection's scheduled faults
// for span annotation; non-fault connections report "".
func connFaultProfile(conn net.Conn) string {
	if fp, ok := conn.(interface{ FaultProfile() string }); ok {
		return fp.FaultProfile()
	}
	return ""
}

// ErrNotHello is returned when the first frame is not a hello.
var ErrNotHello = errors.New("telemetry: expected hello")

// AcceptPoller performs the server side of the handshake on an accepted
// connection with no deadline; prefer AcceptPollerWithTimeout in
// servers, where a silent client would otherwise pin a goroutine.
func AcceptPoller(conn net.Conn, key []byte) (*Poller, error) {
	return AcceptPollerWithTimeout(conn, key, 0)
}

// AcceptPollerWithTimeout performs the handshake with every frame op
// bounded by timeout, and leaves the same timeout armed for subsequent
// polls. A client that connects and sends
// nothing — the slow-loris — fails the handshake within timeout instead
// of hanging.
func AcceptPollerWithTimeout(conn net.Conn, key []byte, timeout time.Duration) (*Poller, error) {
	t, err := NewTunnel(conn, key)
	if err != nil {
		conn.Close()
		return nil, err
	}
	t.SetTimeout(timeout)
	raw, err := t.ReadFrame()
	if err != nil {
		t.Close()
		return nil, err
	}
	m, err := DecodeMessage(raw)
	if err != nil || (m.Type != frameHello && m.Type != frameHelloV2) {
		t.Close()
		if err == nil {
			err = ErrNotHello
		}
		return nil, err
	}
	p := &Poller{tunnel: t, Serial: m.Serial, agentWire: WireV1, wire: WireV1}
	if m.Type == frameHelloV2 {
		p.agentWire = m.Wire
		if p.agentWire > WireV2 {
			// A future agent announces higher; this backend tops out at
			// v2 and the poll's version byte tells the agent so.
			p.agentWire = WireV2
		}
	}
	return p, nil
}

// AgentWire returns the highest wire version the device announced.
func (p *Poller) AgentWire() byte { return p.agentWire }

// NegotiateWire picks the session's wire version: the minimum of what
// the backend wants and what the device announced. It returns the
// version that subsequent Polls will use.
func (p *Poller) NegotiateWire(want byte) byte {
	if want < WireV1 {
		want = WireV1
	}
	p.wire = want
	if p.wire > p.agentWire {
		p.wire = p.agentWire
	}
	return p.wire
}

// Wire returns the session's negotiated wire version.
func (p *Poller) Wire() byte { return p.wire }

// QueueDepth returns the device's remaining queue depth as of the last
// v2 batch — the agent's backpressure hint. Always zero on v1
// sessions, which don't carry the hint.
func (p *Poller) QueueDepth() int { return int(p.queueDepth.Load()) }

// Close closes the poller's tunnel.
func (p *Poller) Close() error { return p.tunnel.Close() }

// Poll requests up to max reports, acknowledges what it received, and
// returns the decoded reports. The ack-after-receive ordering means a
// crash between receive and ack re-delivers reports rather than losing
// them; the backend deduplicates by (serial, seqno).
func (p *Poller) Poll(max int) ([]*Report, error) {
	p.Metrics.Polls.Inc()
	sp := obs.StartSpan(p.Metrics.PollDur)
	out, err := p.poll(max)
	sp.End()
	if err != nil {
		p.Metrics.PollErrors.Inc()
		if p.Health != nil {
			p.Health.Observe(err)
		}
	} else {
		p.Metrics.Reports.Add(int64(len(out)))
	}
	return out, err
}

func (p *Poller) poll(max int) ([]*Report, error) {
	if p.wire >= WireV2 {
		return p.pollV2(max)
	}
	var pollStart time.Time
	if p.Trace != nil {
		pollStart = time.Now()
	}
	if err := p.tunnel.WriteFrame(EncodeMessage(&Message{Type: framePoll, Max: uint32(max)})); err != nil {
		return nil, err
	}
	p.Metrics.FramesOut.Inc()
	raw, err := p.tunnel.ReadFrame()
	if err != nil {
		return nil, err
	}
	p.Metrics.FramesIn.Inc()
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, err
	}
	if m.Type != frameReports {
		return nil, ErrBadFrameType
	}
	if p.Health != nil && m.Dropped > 0 {
		p.Health.SetQueueDrops(p.Serial, int(m.Dropped))
	}
	out := make([]*Report, 0, len(m.Reports))
	for _, rb := range m.Reports {
		r, err := UnmarshalReport(rb)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if p.Trace != nil {
		// Agent-side spans riding the batch land in the daemon's
		// recorder (RecordEvent re-applies sampling, so a daemon at a
		// lower rate down-samples consistently); each sampled report
		// gets a daemon.read span covering this poll round trip.
		for _, sp := range m.Spans {
			p.Trace.RecordEvent(sp)
		}
		fault := connFaultProfile(p.tunnel.conn)
		durUS := time.Since(pollStart).Microseconds()
		for _, r := range out {
			id := trace.ID(r.TraceID)
			if !p.Trace.Sampled(id) {
				continue
			}
			p.Trace.RecordEvent(trace.Event{
				Trace:   id,
				Span:    trace.StageDaemonRead.SpanID(),
				Parent:  trace.StageDaemonRead.Parent(),
				Stage:   trace.StageDaemonRead.String(),
				Serial:  r.Serial,
				Seq:     r.SeqNo,
				StartUS: pollStart.UnixMicro(),
				DurUS:   durUS,
				Fault:   fault,
			})
		}
	}
	if p.BeforeAck != nil {
		if err := p.BeforeAck(out, m.Reports); err != nil {
			return nil, err
		}
	}
	if err := p.tunnel.WriteFrame(EncodeMessage(&Message{Type: frameAck, Count: uint32(len(m.Reports))})); err != nil {
		return nil, err
	}
	p.Metrics.FramesOut.Inc()
	return out, nil
}

// pollV2 is the negotiated-v2 poll: one framePollV2 out, one
// delta-coded frameBatch back, one WAL append and one ack for the whole
// batch. BeforeAckFrame gets the raw batch payload (the durable store
// logs it as a single WAL record); without it BeforeAck runs with nil
// raw and the durable store re-marshals per report.
func (p *Poller) pollV2(max int) ([]*Report, error) {
	var pollStart time.Time
	if p.Trace != nil {
		pollStart = time.Now()
	}
	if err := p.tunnel.WriteFrame(EncodeMessage(&Message{Type: framePollV2, Wire: p.wire, Max: uint32(max)})); err != nil {
		return nil, err
	}
	p.Metrics.FramesOut.Inc()
	raw, err := p.tunnel.ReadFrame()
	if err != nil {
		return nil, err
	}
	p.Metrics.FramesIn.Inc()
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, err
	}
	if m.Type != frameBatch {
		return nil, ErrBadFrameType
	}
	p.Metrics.BatchFrames.Inc()
	p.Metrics.BatchBytes.Add(int64(len(raw) - 1))
	p.queueDepth.Store(m.Batch.QueueDepth)
	if p.Health != nil && m.Batch.Dropped > 0 {
		p.Health.SetQueueDrops(p.Serial, int(m.Batch.Dropped))
	}
	out := m.Batch.Reports
	if p.Trace != nil {
		for _, sp := range m.Batch.Spans {
			p.Trace.RecordEvent(sp)
		}
		fault := connFaultProfile(p.tunnel.conn)
		durUS := time.Since(pollStart).Microseconds()
		for _, r := range out {
			id := trace.ID(r.TraceID)
			if !p.Trace.Sampled(id) {
				continue
			}
			p.Trace.RecordEvent(trace.Event{
				Trace:   id,
				Span:    trace.StageDaemonRead.SpanID(),
				Parent:  trace.StageDaemonRead.Parent(),
				Stage:   trace.StageDaemonRead.String(),
				Serial:  r.Serial,
				Seq:     r.SeqNo,
				StartUS: pollStart.UnixMicro(),
				DurUS:   durUS,
				Fault:   fault,
			})
		}
	}
	if p.BeforeAckFrame != nil {
		if err := p.BeforeAckFrame(out, raw[1:]); err != nil {
			return nil, err
		}
	} else if p.BeforeAck != nil {
		if err := p.BeforeAck(out, nil); err != nil {
			return nil, err
		}
	}
	if err := p.tunnel.WriteFrame(EncodeMessage(&Message{Type: frameAck, Count: uint32(len(out))})); err != nil {
		return nil, err
	}
	p.Metrics.FramesOut.Inc()
	return out, nil
}
