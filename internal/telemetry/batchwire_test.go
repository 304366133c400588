package telemetry

import (
	"errors"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"wlanscale/internal/dot11"
	"wlanscale/internal/faultnet"
	"wlanscale/internal/telemetry/pbwire"
)

// variedReport derives a report from sampleReport with index-dependent
// values, so batches exercise both delta continuity (shared serial,
// near-identical counters) and structural variation.
func variedReport(i int) *Report {
	r := sampleReport()
	r.Timestamp += uint64(i) * 60e6
	r.SeqNo = uint64(i + 1)
	for j := range r.Radios {
		r.Radios[j].CycleUS += uint64(i * 1000)
		r.Radios[j].TxUS += uint64(i * 7)
	}
	if i%3 == 0 {
		r.Clients = append(r.Clients, ClientRecord{
			MAC:    dot11.MAC{0xde, 0xad, 0, 0, 0, byte(i)},
			Band:   dot11.Band24,
			RSSIdB: int32(-10 + i),
		})
	}
	if i%4 == 1 {
		r.Crashes = nil
	}
	return r
}

// presenceReports are the empty-list shapes a round trip must keep
// absent: a report whose every list is empty, and one whose client has
// empty user-agent, fingerprint and app lists (or only empty entries,
// which neither wire ships). Both wires decode them to nil lists.
func presenceReports() []*Report {
	empty := &Report{
		Serial: "Q2XX-EMPT-0001", Timestamp: 90000, SeqNo: 9,
		Radios: []RadioStats{}, Clients: []ClientRecord{}, Neighbors: []NeighborRecord{},
		LinkWindows: []LinkWindow{}, ScanSamples: []ScanSample{}, Crashes: []CrashRecord{},
	}
	bare := variedReport(1)
	bare.Clients = []ClientRecord{
		{MAC: dot11.MAC{0xba, 0x4e, 0, 0, 0, 1}, UserAgents: []string{}, DHCPFingerprints: [][]byte{}, Apps: []AppUsageRecord{}},
		{MAC: dot11.MAC{0xba, 0x4e, 0, 0, 0, 2}, UserAgents: []string{""}, DHCPFingerprints: [][]byte{{}}},
	}
	return []*Report{empty, bare}
}

func TestBatchRoundTrip(t *testing.T) {
	var want []*Report
	be := NewBatchEncoder(0)
	for i := 0; i < 20; i++ {
		r := variedReport(i)
		if i == 10 {
			// The presence shapes sit mid-batch, between delta-coded
			// neighbours, so a slab handing out s[:0:0] would show.
			want = append(want, presenceReports()...)
		}
		want = append(want, r)
	}
	for i, r := range want {
		if !be.Add(r) {
			t.Fatalf("unbounded encoder refused report %d", i)
		}
	}
	payload := be.Finish(7, 42, nil)
	f, err := DecodeBatchFrame(payload)
	if err != nil {
		t.Fatalf("DecodeBatchFrame: %v", err)
	}
	if f.Dropped != 7 || f.QueueDepth != 42 {
		t.Errorf("header = (dropped %d, depth %d), want (7, 42)", f.Dropped, f.QueueDepth)
	}
	if len(f.Reports) != len(want) {
		t.Fatalf("decoded %d reports, want %d", len(f.Reports), len(want))
	}
	for i := range want {
		// The v2 round trip must land on the same struct the v1 round
		// trip of the same report lands on.
		v1, err := UnmarshalReport(want[i].Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.Reports[i], v1) {
			t.Errorf("report %d mismatch:\n got %+v\nwant %+v", i, f.Reports[i], v1)
		}
	}
}

func TestBatchRoundTripEmpty(t *testing.T) {
	payload := NewBatchEncoder(0).Finish(0, 0, nil)
	f, err := DecodeBatchFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Reports) != 0 || f.Dropped != 0 || f.QueueDepth != 0 {
		t.Errorf("empty batch decoded to %+v", f)
	}
}

func TestBatchSizeBudget(t *testing.T) {
	one := NewBatchEncoder(0)
	one.Add(variedReport(0))
	budget := one.Size() + 8 // room for one report, not two
	be := NewBatchEncoder(budget)
	if !be.Add(variedReport(0)) {
		t.Fatal("first report must always fit")
	}
	if be.Add(variedReport(1)) {
		t.Fatalf("second report accepted past budget: size %d > budget %d", be.Size(), budget)
	}
	if be.Len() != 1 {
		t.Fatalf("Len = %d after declined add, want 1", be.Len())
	}
	// The declined report's dictionary additions must have rolled back:
	// the payload still decodes and holds exactly one report.
	f, err := DecodeBatchFrame(be.Finish(0, 0, nil))
	if err != nil {
		t.Fatalf("decode after rollback: %v", err)
	}
	if len(f.Reports) != 1 {
		t.Fatalf("decoded %d reports, want 1", len(f.Reports))
	}
}

// TestBatchTinyBudgetFirstAlwaysFits pins liveness: a report larger
// than the whole budget still ships alone rather than wedging the poll.
func TestBatchTinyBudgetFirstAlwaysFits(t *testing.T) {
	be := NewBatchEncoder(16)
	if !be.Add(sampleReport()) {
		t.Fatal("oversized first report must still be accepted")
	}
	if be.Add(sampleReport()) {
		t.Fatal("second report must be declined")
	}
}

// TestBatchCompression is the codec-level half of the issue's ≥3×
// bytes/report target: a steady-state batch (same device, repeating
// string universe, slowly-moving counters) must encode to under a third
// of the v1 bytes.
func TestBatchCompression(t *testing.T) {
	const n = 32
	v1 := 0
	be := NewBatchEncoder(0)
	for i := 0; i < n; i++ {
		r := variedReport(i)
		v1 += len(r.Marshal())
		be.Add(r)
	}
	v2 := len(be.Finish(0, 0, nil))
	t.Logf("v1 = %d bytes, v2 = %d bytes (%.2fx)", v1, v2, float64(v1)/float64(v2))
	if v2*3 > v1 {
		t.Errorf("batch = %d bytes for %d reports; v1 = %d; want >=3x reduction", v2, n, v1)
	}
}

func TestDecodeBatchFrameErrors(t *testing.T) {
	good := func() []byte {
		be := NewBatchEncoder(0)
		be.Add(sampleReport())
		return be.Finish(0, 0, nil)
	}()
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad version", []byte{0x7f, 0, 0, 0, 0}},
		{"v1 not v2", append([]byte{WireV1}, good[1:]...)},
		{"truncated", good[:len(good)/2]},
		{"trailing", append(append([]byte{}, good...), 0x00)},
	}
	for _, tc := range cases {
		if _, err := DecodeBatchFrame(tc.b); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
	if _, err := DecodeBatchFrame(append(append([]byte{}, good...), 0x00)); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing bytes: err = %v, want ErrTrailingBytes", err)
	}
}

// TestDecodeBatchOwnsItsMemory pins the arena's ownership rules: the
// decoded reports point nowhere into the payload, survive it being
// overwritten, and an append to one report's list never writes into
// its neighbour's.
func TestDecodeBatchOwnsItsMemory(t *testing.T) {
	be := NewBatchEncoder(0)
	var want []*Report
	for i := 0; i < 6; i++ {
		r := variedReport(i)
		be.Add(r)
		v1, err := UnmarshalReport(r.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v1)
	}
	payload := be.Finish(0, 0, nil)
	f, err := DecodeBatchFrame(payload)
	if err != nil {
		t.Fatal(err)
	}

	lo := uintptr(unsafe.Pointer(&payload[0]))
	inPayload := func(what string, p *byte) {
		if a := uintptr(unsafe.Pointer(p)); a >= lo && a < lo+uintptr(len(payload)) {
			t.Errorf("%s points into the payload", what)
		}
	}
	str := func(what, s string) {
		if s != "" {
			inPayload(what, unsafe.StringData(s))
		}
	}
	for _, r := range f.Reports {
		str("serial", r.Serial)
		for _, c := range r.Clients {
			for _, ua := range c.UserAgents {
				str("user agent", ua)
			}
			for _, fp := range c.DHCPFingerprints {
				inPayload("fingerprint", &fp[0])
			}
			for _, a := range c.Apps {
				str("app", a.App)
			}
		}
		for _, n := range r.Neighbors {
			str("ssid", n.SSID)
			str("vendor", n.Vendor)
		}
		for _, c := range r.Crashes {
			str("firmware", c.Firmware)
		}
	}

	for i := range payload {
		payload[i] = 0xff
	}
	for i, r := range f.Reports {
		if !reflect.DeepEqual(r, want[i]) {
			t.Fatalf("report %d changed when the payload was overwritten", i)
		}
	}

	for i := 0; i+1 < len(f.Reports); i++ {
		r := f.Reports[i]
		c := &r.Clients[0]
		r.Radios = append(r.Radios, RadioStats{Channel: 165})
		c.Apps = append(c.Apps, AppUsageRecord{App: "intruder", UpBytes: 1})
		c.UserAgents = append(c.UserAgents, "intruder")
		c.DHCPFingerprints = append(c.DHCPFingerprints, []byte{0xee})
		if !reflect.DeepEqual(f.Reports[i+1], want[i+1]) {
			t.Fatalf("appending to report %d's lists changed report %d", i, i+1)
		}
	}
}

// decodeAllocPerByte is DecodeBatchFrame's documented k: one call
// allocates at most k bytes per payload byte plus decodeAllocSlack.
const (
	decodeAllocPerByte = 256
	decodeAllocSlack   = 64 << 10
)

// decodeAllocBytes decodes b and returns the heap bytes the call
// allocated. Another goroutine may allocate meanwhile, so a reading
// over limit is retried and the least of three kept.
func decodeAllocBytes(b []byte, limit uint64) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3 && least > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		DecodeBatchFrame(b)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// hugeCountPayloads are batches whose counts declare far more records
// than their bodies hold: 2^32 reports, 2^20 clients in one report,
// 2^20 apps on one client, and 580 radios in a report followed by 359
// more — each count fits the body, a backing array sized for all 360
// reports' radios would not. The last holds 4096 empty trace spans, the
// most decoded bytes per input byte a valid batch can carry.
func hugeCountPayloads() map[string][]byte {
	var dict pbwire.DictBuilder
	serial := dict.Ref("Q2XX-HUGE-0001")
	mac := dict.RefBytes([]byte{2, 0, 0, 0, 0, 1})
	caps := dict.RefBytes([]byte{0, 0})
	frame := func(pad int, body ...uint64) []byte {
		var e pbwire.Encoder
		e.Append([]byte{WireV2, 0, 0})
		dict.Encode(&e)
		for _, v := range body {
			e.Varint(v)
		}
		e.Append(make([]byte, pad)) // a run of zero varints
		return e.Bytes()
	}
	report := []uint64{serial, 0, 0, 0, 0} // serial, MAC, time, seq, trace
	return map[string][]byte{
		"reports": frame(48, 1<<32),
		"clients": frame(48, append([]uint64{1}, append(report, 0, 1<<20)...)...),
		"apps":    frame(48, append([]uint64{1}, append(report, 0, 1, mac, 0, 0, caps, 0, 0, 1<<20)...)...),
		"radios":  frame(4096, append([]uint64{360}, append(report, 580)...)...),
		"spans":   frame(4096, 0, 4096),
	}
}

// TestDecodeBatchAllocBound: a count the body cannot hold must not
// turn into allocation — each huge-count payload errors or decodes
// within the documented k × input bound.
func TestDecodeBatchAllocBound(t *testing.T) {
	for name, b := range hugeCountPayloads() {
		limit := uint64(decodeAllocPerByte*len(b) + decodeAllocSlack)
		if got := decodeAllocBytes(b, limit); got > limit {
			t.Errorf("%s: decode of %d bytes allocated %d, bound %d", name, len(b), got, limit)
		}
	}
}

// harvestV2 runs one agent/poller session over a pipe with the given
// negotiated wire version, polls once, and returns what landed.
func harvestV2(t *testing.T, agentWire byte, negotiate byte, max int, n int) ([]*Report, *Poller, *Agent, chan error) {
	t.Helper()
	a := NewAgent("Q2BV-0001", testKey)
	a.Wire = agentWire
	for i := 0; i < n; i++ {
		a.Enqueue(variedReport(i))
	}
	c1, c2 := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- a.ServeConn(c1) }()
	p, err := AcceptPoller(c2, testKey)
	if err != nil {
		t.Fatalf("AcceptPoller: %v", err)
	}
	p.NegotiateWire(negotiate)
	got, err := p.Poll(max)
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	return got, p, a, done
}

func TestHarvestV2EndToEnd(t *testing.T) {
	const n = 12
	got, p, a, _ := harvestV2(t, WireV2, WireV2, 64, n)
	defer p.Close()
	if p.Wire() != WireV2 {
		t.Fatalf("negotiated wire = %d, want v2", p.Wire())
	}
	if len(got) != n {
		t.Fatalf("harvested %d reports, want %d", len(got), n)
	}
	for i, r := range got {
		want := variedReport(i)
		want.SeqNo = uint64(i + 1) // Enqueue stamps sequence numbers
		v1, _ := UnmarshalReport(want.Marshal())
		if !reflect.DeepEqual(r, v1) {
			t.Errorf("report %d mismatch over v2 wire", i)
		}
	}
	// The ack must have drained the agent's queue, and the backpressure
	// hint must read empty.
	deadline := time.Now().Add(5 * time.Second)
	for a.QueueLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ql := a.QueueLen(); ql != 0 {
		t.Errorf("queue length after ack = %d, want 0", ql)
	}
	if d := p.QueueDepth(); d != 0 {
		t.Errorf("queue depth hint = %d, want 0", d)
	}
}

func TestHarvestV2BackpressureHint(t *testing.T) {
	const n, max = 20, 5
	got, p, _, _ := harvestV2(t, WireV2, WireV2, max, n)
	defer p.Close()
	if len(got) != max {
		t.Fatalf("harvested %d, want %d", len(got), max)
	}
	if d := p.QueueDepth(); d != n-max {
		t.Errorf("queue depth hint = %d, want %d", d, n-max)
	}
}

// TestPollArenaLifetime: a poller hands its decode arena from poll to
// poll only while the device reports a backlog. The poll that drains
// the queue drops it, so that poll's reports survive the next poll,
// and a caught-up poller holds no arena.
func TestPollArenaLifetime(t *testing.T) {
	a := NewAgent("Q2BV-0004", testKey)
	a.Wire = WireV2
	var want []*Report
	for i := 0; i < 10; i++ {
		r := variedReport(i)
		a.Enqueue(r)
		want = append(want, mustV1RoundTrip(r))
	}
	c1, c2 := net.Pipe()
	go a.ServeConn(c1)
	p, err := AcceptPoller(c2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.NegotiateWire(WireV2)

	var last []*Report
	for polls, depth := 0, 10; depth > 0; polls++ {
		if last, err = p.Poll(4); err != nil {
			t.Fatal(err)
		}
		depth = p.QueueDepth()
		if held := p.dec != nil; held != (depth > 0) {
			t.Fatalf("poll %d: queue depth %d, poller holds an arena: %v", polls, depth, held)
		}
	}
	want = want[8:]
	if !reflect.DeepEqual(last, want) {
		t.Fatal("last poll's reports differ from what was queued")
	}

	a.Enqueue(variedReport(20))
	a.Enqueue(variedReport(21))
	next, err := p.Poll(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 2 || p.dec != nil {
		t.Fatalf("follow-up poll got %d reports, arena held %v; want 2, false", len(next), p.dec != nil)
	}
	if !reflect.DeepEqual(last, want) {
		t.Fatal("a later poll overwrote the reports of the poll that emptied the queue")
	}
}

// TestV2AgentV1Backend pins the negotiation matrix row where the
// backend declines v2: a v2 agent must answer plain framePoll with a
// legacy frameReports and the harvest must be lossless.
func TestV2AgentV1Backend(t *testing.T) {
	const n = 8
	got, p, _, _ := harvestV2(t, WireV2, WireV1, 64, n)
	defer p.Close()
	if p.Wire() != WireV1 {
		t.Fatalf("negotiated wire = %d, want v1", p.Wire())
	}
	if p.agentWire != WireV2 {
		t.Fatalf("agent wire = %d, want v2", p.agentWire)
	}
	if len(got) != n {
		t.Fatalf("harvested %d reports, want %d", len(got), n)
	}
}

// TestV1AgentV2Backend: a backend asking for v2 against a v1 agent must
// clamp to v1 — the agent never announced v2, so the poller must not
// send framePollV2.
func TestV1AgentV2Backend(t *testing.T) {
	const n = 8
	got, p, _, _ := harvestV2(t, 0, WireV2, 64, n)
	defer p.Close()
	if p.Wire() != WireV1 {
		t.Fatalf("negotiated wire = %d, want v1 clamp", p.Wire())
	}
	if len(got) != n {
		t.Fatalf("harvested %d reports, want %d", len(got), n)
	}
}

// TestAgentKeepsV2AfterPrePollFailure: a v2 session that dies before
// the first poll — the backend hangs up on the hello, or the hello
// arrives corrupted — is an ordinary session failure. The agent's next
// session must still open with frameHelloV2 and harvest on v2.
func TestAgentKeepsV2AfterPrePollFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		// wrap wraps the agent's end of the first session's pipe; fail
		// runs its backend end.
		wrap func(net.Conn) net.Conn
		fail func(t *testing.T, backend net.Conn)
	}{
		{
			name: "close after hello",
			wrap: func(c net.Conn) net.Conn { return c },
			fail: func(t *testing.T, backend net.Conn) {
				tun, err := NewTunnel(backend, testKey)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := tun.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				if raw[0] != frameHelloV2 {
					t.Fatalf("first hello frame type = %d, want frameHelloV2", raw[0])
				}
				tun.Close()
			},
		},
		{
			name: "corrupted hello",
			wrap: func(c net.Conn) net.Conn {
				return faultnet.WrapConn(c, faultnet.Plan{Corrupt: []faultnet.Window{{From: 0, To: 1}}, CorruptProb: 1}, 0)
			},
			fail: func(t *testing.T, backend net.Conn) {
				if p, err := AcceptPollerWithTimeout(backend, testKey, 200*time.Millisecond); err == nil {
					p.Close()
					t.Fatal("corrupted hello accepted")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAgent("Q2BV-0002", testKey)
			a.Wire = WireV2
			a.Timeout = time.Second
			a.Enqueue(sampleReport())

			c1, c2 := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- a.ServeConn(tc.wrap(c1)) }()
			tc.fail(t, c2)
			c2.Close()
			if err := <-done; err == nil {
				t.Fatal("failed session ended without error")
			}

			c3, c4 := net.Pipe()
			go a.ServeConn(c3)
			p, err := AcceptPoller(c4, testKey)
			if err != nil {
				t.Fatalf("accept after failed session: %v", err)
			}
			defer p.Close()
			if w := p.NegotiateWire(WireV2); w != WireV2 {
				t.Fatalf("agent announced wire %d after a pre-poll failure, want v2", p.agentWire)
			}
			got, err := p.Poll(16)
			if err != nil {
				t.Fatalf("Poll: %v", err)
			}
			if len(got) != 1 {
				t.Fatalf("harvested %d reports on v2, want 1", len(got))
			}
		})
	}
}

// TestBatchAgeOverride: a queue whose head has aged past BatchMaxAge
// drains at full poll width even under a one-report size budget.
func TestBatchAgeOverride(t *testing.T) {
	a := NewAgent("Q2BV-0003", testKey)
	a.Wire = WireV2
	a.BatchBytes = 16 // absurdly small: would trickle one report per poll
	a.BatchMaxAge = time.Nanosecond
	for i := 0; i < 6; i++ {
		a.Enqueue(variedReport(i))
	}
	time.Sleep(2 * time.Millisecond) // let the head age past BatchMaxAge
	f, err := DecodeBatchFrame(a.buildBatch(64, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Reports) != 6 {
		t.Fatalf("aged batch carried %d reports, want all 6", len(f.Reports))
	}
}

func TestBatchFlushOnSize(t *testing.T) {
	a := NewAgent("Q2BV-0004", testKey)
	a.Wire = WireV2
	a.BatchBytes = 600 // roughly one sample report
	a.BatchMaxAge = time.Hour
	for i := 0; i < 6; i++ {
		a.Enqueue(variedReport(i))
	}
	f, err := DecodeBatchFrame(a.buildBatch(64, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Reports) == 0 || len(f.Reports) == 6 {
		t.Fatalf("size-budgeted batch carried %d reports, want partial flush", len(f.Reports))
	}
	if int(f.QueueDepth) != 6-len(f.Reports) {
		t.Errorf("queue depth hint = %d, want %d", f.QueueDepth, 6-len(f.Reports))
	}
}

// TestBatchMessageRoundTrip pins frameBatch through the generic
// Message codec (the fuzz round-trip path).
func TestBatchMessageRoundTrip(t *testing.T) {
	bf := &BatchFrame{Version: WireV2, Dropped: 3, QueueDepth: 9}
	for i := 0; i < 4; i++ {
		r, _ := UnmarshalReport(variedReport(i).Marshal())
		bf.Reports = append(bf.Reports, r)
	}
	m := &Message{Type: frameBatch, Batch: bf}
	got, err := DecodeMessage(EncodeMessage(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Batch == nil {
		t.Fatal("decoded message has no batch")
	}
	if got.Batch.Dropped != 3 || got.Batch.QueueDepth != 9 {
		t.Errorf("batch header = %+v", got.Batch)
	}
	if !reflect.DeepEqual(got.Batch.Reports, bf.Reports) {
		t.Error("batch reports mismatch through Message codec")
	}
	for i, r := range got.Batch.Reports {
		if r.SeqNo != uint64(i+1) {
			t.Errorf("report %d seq = %d", i, r.SeqNo)
		}
	}
}

// TestHelloV2MessageRoundTrip covers the two new control frames.
func TestHelloV2MessageRoundTrip(t *testing.T) {
	for _, m := range []*Message{
		{Type: frameHelloV2, Wire: WireV2, Serial: "Q2XX-META-77"},
		{Type: framePollV2, Wire: WireV2, Max: 123456},
	} {
		got, err := DecodeMessage(EncodeMessage(m))
		if err != nil {
			t.Fatalf("type %d: %v", m.Type, err)
		}
		if got.Wire != m.Wire || got.Serial != m.Serial || got.Max != m.Max {
			t.Errorf("type %d round trip: got %+v want %+v", m.Type, got, m)
		}
	}
}

// TestV1FramesByteIdentical pins that nothing about the v2 work changed
// a single byte of the legacy frames (the "v1 peers remain
// byte-identical" requirement, belt to the fuzz corpus's suspenders).
func TestV1FramesByteIdentical(t *testing.T) {
	r := sampleReport().Marshal()
	cases := []struct {
		m    *Message
		want []byte
	}{
		{&Message{Type: frameHello, Serial: "AB"}, []byte{1, 'A', 'B'}},
		{&Message{Type: framePoll, Max: 0x01020304}, []byte{2, 1, 2, 3, 4}},
		{&Message{Type: frameAck, Count: 5}, []byte{4, 0, 0, 0, 5}},
	}
	for _, tc := range cases {
		if got := EncodeMessage(tc.m); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("type %d encoded to % x, want % x", tc.m.Type, got, tc.want)
		}
	}
	rep := EncodeMessage(&Message{Type: frameReports, Dropped: 2, Reports: [][]byte{r}})
	want := append([]byte{3, 0, 0, 0, 2, 0, 0, byte(len(r) >> 8), byte(len(r))}, r...)
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("frameReports bytes changed:\n got % x\nwant % x", rep[:16], want[:16])
	}
}
