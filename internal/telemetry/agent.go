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
	// Wire is the maximum wire version the agent announces (WireV2 opts
	// into delta-coded batch frames); zero or WireV1 keeps the legacy
	// per-report protocol byte-identical. The backend clamps the session
	// to what it speaks (Poller.NegotiateWire), and a v2 agent answers a
	// v1 poll in the v1 format, so a mixed fleet needs no flag day.
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
	queue   []queued
	dropped int
	seq     uint64

	// Tracing state (EnableTrace).
	tracer   *trace.Tracer
	traceIDs *trace.IDStream
}

// queued is one report awaiting an ack: a v2 batch encodes from r, a
// v1 reply and SaveQueue ship raw.
type queued struct {
	r     *Report
	raw   []byte     // r's v1 encoding, marshalled at Enqueue
	enqUS int64      // wall-clock enqueue micros; zero (ancient) when restored
	meta  *queueMeta // nil when untraced, keeping the untraced entry small
}

// queueMeta is the per-queued-report trace bookkeeping. Reports queued
// before EnableTrace or restored by LoadQueue have none.
type queueMeta struct {
	id       trace.ID
	enq      trace.Event // the report's agent.enqueue span, re-shipped with each batch
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
	q := queued{r: r}
	if a.traceIDs != nil {
		id, sampled := a.traceIDs.Next()
		r.TraceID = uint64(id)
		q.meta = &queueMeta{id: id}
		if sampled {
			sp = a.tracer.Start(id, trace.StageAgentEnqueue)
			sp.SetSerial(a.Serial)
			sp.SetSeq(a.seq)
		}
	}
	q.raw = r.Marshal()
	if q.meta != nil {
		q.meta.enq = sp.EndEvent()
	}
	q.enqUS = time.Now().UnixMicro()
	a.queue = append(a.queue, q)
	if a.QueueLimit > 0 && len(a.queue) > a.QueueLimit {
		over := len(a.queue) - a.QueueLimit
		a.dropLocked(over)
		a.dropped += over
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

// reportsMessage answers a v1 poll with up to max queued reports and,
// when tracing, their span events (spanEventsLocked).
func (a *Agent) reportsMessage(max int, fault string) *Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	head := a.queue[:min(max, len(a.queue))]
	return &Message{Type: frameReports, Reports: rawAll(head), Dropped: uint32(a.dropped), Spans: a.spanEventsLocked(len(head), fault)}
}

// rawAll returns the v1 encoding of each queued report.
func rawAll(qs []queued) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		out[i] = q.raw
	}
	return out
}

// spanEventsLocked builds the tunnel.write span events for the first n
// queued reports (those about to ship): one per sampled report,
// measuring queue dwell (enqueue to wire) with the delivery-attempt
// count and the connection's fault profile attached. Each call counts
// as one delivery attempt, so a batch re-sent after a dropped session
// ships the same spans with Retries incremented (the recorder keeps the
// latest). Caller holds a.mu.
func (a *Agent) spanEventsLocked(n int, fault string) []trace.Event {
	if a.traceIDs == nil {
		return nil
	}
	var spans []trace.Event
	var nowUS int64
	for _, q := range a.queue[:n] {
		m := q.meta
		if m == nil {
			continue
		}
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
				Seq:     q.r.SeqNo,
				StartUS: q.enqUS,
				DurUS:   nowUS - q.enqUS,
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
	a.dropLocked(min(n, len(a.queue)))
}

// dropLocked removes the n oldest queued reports, clearing their slots
// so the backing array does not pin them. Caller holds a.mu.
func (a *Agent) dropLocked(n int) {
	clear(a.queue[:n])
	a.queue = a.queue[n:]
}

// queueSnapshot is the gob-persisted agent state — what a real device
// keeps on flash so a reboot resumes where it left off. Queue holds
// each report's v1 encoding.
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
	snap := queueSnapshot{Serial: a.Serial, Seq: a.seq, Dropped: a.dropped, Queue: rawAll(a.queue)}
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
// Dropped, so the loss is accounted like any other queue drop; an
// entry that no longer decodes is dropped and accounted the same way.
// Only a snapshot that decodes cleanly but belongs to another device
// is rejected with an error. The sequence counter only moves forward:
// restoring a stale snapshot must not re-issue sequence numbers that
// newer reports may already have used, or the backend would dedup
// fresh data away.
func (a *Agent) LoadQueue(r io.Reader) error {
	hdr := make([]byte, queueHeaderSize)
	lostCount := 0
	corrupt := func() error {
		a.mu.Lock()
		a.queue = nil
		a.dropped += lostCount
		a.mu.Unlock()
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
	// Restored entries carry zero enqueue times, which read as ancient:
	// a restored backlog trips the batch-age override and drains at full
	// poll width. Their trace IDs ride in the report, but the span
	// bookkeeping did not survive the reboot, so they ship no
	// tunnel.write spans.
	queue := make([]queued, 0, len(snap.Queue))
	for _, b := range snap.Queue {
		if rep, err := UnmarshalReport(b); err == nil {
			queue = append(queue, queued{r: rep, raw: b})
		}
	}
	lost := len(snap.Queue) - len(queue)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queue = queue
	a.dropped = snap.Dropped + lost
	if snap.Seq > a.seq {
		a.seq = snap.Seq
	}
	return nil
}

// ServeConn runs the agent protocol over an established connection.
// Every frame op is bounded by a.Timeout, so a stalled backend costs at
// most one timeout, never a hung goroutine.
//
// A WireV2 agent opens with frameHelloV2 and answers each poll in the
// format the poll requests: framePoll gets a legacy frameReports (the
// backend negotiated v1), framePollV2 gets a delta-coded frameBatch.
func (a *Agent) ServeConn(conn net.Conn) error {
	t, err := NewTunnel(conn, a.Key)
	if err != nil {
		conn.Close()
		return err
	}
	defer t.Close()
	t.SetTimeout(a.Timeout)
	fault := connFaultProfile(conn)
	hello := &Message{Type: frameHello, Serial: a.Serial}
	if a.Wire >= WireV2 {
		hello = &Message{Type: frameHelloV2, Wire: WireV2, Serial: a.Serial}
	}
	if err := t.WriteFrame(EncodeMessage(hello)); err != nil {
		return err
	}
	for {
		raw, err := t.ReadFrame()
		if err != nil {
			return err
		}
		m, err := DecodeMessage(raw)
		if err != nil {
			return err
		}
		switch m.Type {
		case framePoll:
			if err := t.WriteFrame(EncodeMessage(a.reportsMessage(int(m.Max), fault))); err != nil {
				return err
			}
		case framePollV2:
			if err := t.WriteFrame(append([]byte{frameBatch}, a.buildBatch(int(m.Max), fault)...)); err != nil {
				return err
			}
		case frameAck:
			a.drop(int(m.Count))
		default:
			return ErrBadFrameType
		}
	}
}

// buildBatch assembles one v2 batch payload from the head of the queue:
// up to max reports, delta-coded under the BatchBytes budget unless the
// oldest report's age trips the BatchMaxAge override. The remaining
// queue depth rides the frame as the backpressure hint.
func (a *Agent) buildBatch(max int, fault string) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	max = min(max, len(a.queue))
	budget := a.BatchBytes
	if budget == 0 {
		budget = 64 << 10
	}
	maxAge := a.BatchMaxAge
	if maxAge == 0 {
		maxAge = 30 * time.Second
	}
	if max > 0 && time.Now().UnixMicro()-a.queue[0].enqUS > maxAge.Microseconds() {
		budget = 0 // age override: drain at full poll width
	}
	be := NewBatchEncoder(budget)
	for _, q := range a.queue[:max] {
		if !be.Add(q.r) {
			break
		}
	}
	spans := a.spanEventsLocked(be.Len(), fault)
	depth := len(a.queue) - be.Len()
	return be.Finish(uint32(a.dropped), uint32(depth), spans)
}

// RunWithReconnect keeps the agent connected to addr, retrying with
// jittered, capped exponential backoff, until stop is closed — closing
// stop also tears down an in-flight session.
func (a *Agent) RunWithReconnect(addr string, stop <-chan struct{}) {
	a.runReconnect([]string{addr}, stop)
}

// RunAddrs keeps the agent connected to one of a failover chain: it
// connects to addrs[0], moves to the next address on every session
// failure, and wraps around — the paper's dual-DC deployment with two
// addresses, and the cluster deployment shape, where an agent's chain
// is its network's shard (by the cluster shard map) followed by
// whatever fallbacks the operator configured. Backoff and
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
		// Sleep backoff scaled by a jitter factor in [0.5, 1.5).
		wait := time.Duration(float64(backoff) * (0.5 + jitter.Float64()))
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
	// dec is the v2 batch decoder a poll that left the device
	// backlogged hands to the next poll, which drain mode issues at
	// once. The poll that finds the queue empty, or fails, drops it,
	// so a caught-up connection holds no decode arena.
	dec *BatchDecoder
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
	// fall back to BeforeAck with nil raw. The reports live in the
	// poller's decode arena (see Poll): the hook may read them and
	// keep their strings, but must copy anything else it keeps.
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
//
// A v2 poll's reports are valid until the next Poll on this poller:
// while the device reports a backlog, the next poll decodes into the
// same arena (BatchDecoder) and overwrites them. Their strings stay
// valid for good; copy anything else that must outlive the next Poll.
// v1 reports are the caller's to keep.
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

// poll is one harvest round on either wire. The session's version
// picks the request frame and the reply it expects — framePoll and a
// frameReports of v1 messages, or framePollV2 and one delta-coded
// frameBatch — and the ack hook: a v2 batch goes to BeforeAckFrame
// whole (the durable store logs it as a single WAL record), everything
// else to BeforeAck, with nil raw for a v2 batch.
func (p *Poller) poll(max int) ([]*Report, error) {
	dec := p.dec
	p.dec = nil
	var pollStart time.Time
	if p.Trace != nil {
		pollStart = time.Now()
	}
	req, want := &Message{Type: framePoll, Max: uint32(max)}, byte(frameReports)
	if p.wire >= WireV2 {
		req, want = &Message{Type: framePollV2, Wire: p.wire, Max: uint32(max)}, frameBatch
	}
	if err := p.tunnel.WriteFrame(EncodeMessage(req)); err != nil {
		return nil, err
	}
	p.Metrics.FramesOut.Inc()
	raw, err := p.tunnel.ReadFrame()
	if err != nil {
		return nil, err
	}
	p.Metrics.FramesIn.Inc()
	if dec == nil && p.wire >= WireV2 {
		dec = new(BatchDecoder)
	}
	m, err := decodeMessage(raw, dec)
	if err != nil {
		return nil, err
	}
	if m.Type != want {
		return nil, ErrBadFrameType
	}
	if p.Health != nil && m.Dropped > 0 {
		p.Health.SetQueueDrops(p.Serial, int(m.Dropped))
	}
	var out []*Report
	if m.Batch != nil {
		p.Metrics.BatchFrames.Inc()
		p.Metrics.BatchBytes.Add(int64(len(raw) - 1))
		p.queueDepth.Store(m.Batch.QueueDepth)
		out = m.Batch.Reports
	} else {
		out = make([]*Report, 0, len(m.Reports))
		for _, rb := range m.Reports {
			r, err := UnmarshalReport(rb)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
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
	if m.Batch != nil && p.BeforeAckFrame != nil {
		err = p.BeforeAckFrame(out, raw[1:])
	} else if p.BeforeAck != nil {
		err = p.BeforeAck(out, m.Reports)
	}
	if err != nil {
		return nil, err
	}
	if err := p.tunnel.WriteFrame(EncodeMessage(&Message{Type: frameAck, Count: uint32(len(out))})); err != nil {
		return nil, err
	}
	p.Metrics.FramesOut.Inc()
	if m.Batch != nil && m.Batch.QueueDepth > 0 {
		p.dec = dec
	}
	return out, nil
}
