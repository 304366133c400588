package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry/pbwire"
)

var testKey = bytes.Repeat([]byte{0x42}, 32)

func sampleReport() *Report {
	return &Report{
		Serial:    "Q2XX-ABCD-1234",
		MAC:       dot11.MAC{0x00, 0x18, 0x0a, 1, 2, 3},
		Timestamp: 86400,
		Radios: []RadioStats{
			{Band: dot11.Band24, Channel: 6, WidthMHz: 20, CycleUS: 1e6, RxClearUS: 250000, Rx11US: 200000, TxUS: 10000},
			{Band: dot11.Band5, Channel: 36, WidthMHz: 40, CycleUS: 1e6, RxClearUS: 50000, Rx11US: 45000},
		},
		Clients: []ClientRecord{
			{
				MAC:              dot11.MAC{0xac, 0xbc, 0x32, 9, 9, 9},
				Band:             dot11.Band5,
				RSSIdB:           31,
				Caps:             dot11.Capabilities{AC: true, Streams: 2}.Normalize(),
				UserAgents:       []string{"Mozilla/5.0 (iPhone...)"},
				DHCPFingerprints: [][]byte{{1, 121, 3, 6, 15, 119, 252}},
				Apps: []AppUsageRecord{
					{App: "Netflix", UpBytes: 21000, DownBytes: 1200000000, Flows: 3},
					{App: "Miscellaneous web", UpBytes: 5000, DownBytes: 90000, Flows: 12},
				},
			},
		},
		Neighbors: []NeighborRecord{
			{BSSID: dot11.MAC{2, 0, 0, 0, 0, 1}, SSID: "Verizon-MiFi", Band: dot11.Band24, Channel: 1, RSSIdB: 12, Vendor: "Novatel Wireless"},
		},
		LinkWindows: []LinkWindow{
			{Peer: dot11.MAC{0x00, 0x18, 0x0a, 4, 5, 6}, Band: dot11.Band24, Sent: 20, Delivered: 13},
		},
		ScanSamples: []ScanSample{
			{Band: dot11.Band24, Channel: 6, BusyPermille: 253, DecodablePermille: 201},
		},
		Crashes: []CrashRecord{
			{Timestamp: 3600, Kind: 0, Firmware: "r24.7", PC: 0x80401a2c, FreeKB: 112, NeighborCount: 3150},
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	got, err := UnmarshalReport(r.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalReport: %v", err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestReportRoundTripEmpty(t *testing.T) {
	r := &Report{}
	got, err := UnmarshalReport(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("empty report mismatch: %+v", got)
	}
}

func TestReportFuzzNoPanic(t *testing.T) {
	err := quick.Check(func(b []byte) bool {
		_, _ = UnmarshalReport(b)
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func TestReportOverhead(t *testing.T) {
	// Section 2: "A typical access point averages around 1 kilobit per
	// second to report to the backend." Reports go out roughly once a
	// minute; a typical report must therefore stay under ~8 KB
	// (60 s * 1 kb/s = 7.5 KB).
	size := len(sampleReport().Marshal())
	if size > 4096 {
		t.Errorf("typical report = %d bytes; too heavy for the 1 kb/s budget", size)
	}
	if size < 50 {
		t.Errorf("report suspiciously small: %d bytes", size)
	}
}

func TestTunnelRoundTrip(t *testing.T) {
	c1, c2 := net.Pipe()
	ta, err := NewTunnel(c1, testKey)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTunnel(c2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	defer tb.Close()

	msg := []byte("periodic statistics report payload")
	errc := make(chan error, 1)
	go func() { errc <- ta.WriteFrame(msg) }()
	got, err := tb.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("payload = %q", got)
	}
}

func TestTunnelEncryptsOnWire(t *testing.T) {
	// Capture the wire bytes and check the payload is not visible.
	c1, c2 := net.Pipe()
	tun, _ := NewTunnel(c1, testKey)
	payload := []byte("SECRET-CLIENT-MAC-TABLE")
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 4096)
		n, _ := c2.Read(buf)
		done <- buf[:n]
	}()
	if err := tun.WriteFrame(payload); err != nil {
		t.Fatal(err)
	}
	wire := <-done
	if bytes.Contains(wire, payload) {
		t.Error("payload visible in cleartext on the wire")
	}
	c1.Close()
	c2.Close()
}

func TestTunnelRejectsTamperedFrame(t *testing.T) {
	c1, c2 := net.Pipe()
	ta, _ := NewTunnel(c1, testKey)
	tb, _ := NewTunnel(c2, testKey)
	defer ta.Close()
	defer tb.Close()

	// Relay one frame through a tampering middlebox.
	raw := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 4096)
		n, _ := c2.Read(buf)
		raw <- buf[:n]
	}()
	if err := ta.WriteFrame([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	frame := <-raw
	frame[10] ^= 0xff // flip a ciphertext bit

	c3, c4 := net.Pipe()
	tc, _ := NewTunnel(c4, testKey)
	go c3.Write(frame)
	if _, err := tc.ReadFrame(); err != ErrBadMAC {
		t.Errorf("tampered frame err = %v, want ErrBadMAC", err)
	}
	c3.Close()
	c4.Close()
}

func TestTunnelRejectsWrongKey(t *testing.T) {
	c1, c2 := net.Pipe()
	ta, _ := NewTunnel(c1, testKey)
	otherKey := bytes.Repeat([]byte{0x43}, 32)
	tb, _ := NewTunnel(c2, otherKey)
	defer ta.Close()
	defer tb.Close()
	go ta.WriteFrame([]byte("hi"))
	if _, err := tb.ReadFrame(); err != ErrBadMAC {
		t.Errorf("wrong-key err = %v", err)
	}
}

func TestTunnelKeyLength(t *testing.T) {
	c1, _ := net.Pipe()
	if _, err := NewTunnel(c1, []byte("short")); err != ErrShortKey {
		t.Errorf("short key err = %v", err)
	}
	c1.Close()
}

func TestMessageEncodeDecode(t *testing.T) {
	for _, m := range []*Message{
		{Type: frameHello, Serial: "Q2XX-1"},
		{Type: framePoll, Max: 100},
		{Type: frameAck, Count: 7},
		{Type: frameReports, Reports: [][]byte{{1, 2}, {3}}},
		{Type: frameReports}, // empty batch
	} {
		got, err := DecodeMessage(EncodeMessage(m))
		if err != nil {
			t.Fatalf("decode %d: %v", m.Type, err)
		}
		if got.Type != m.Type || got.Serial != m.Serial || got.Max != m.Max || got.Count != m.Count {
			t.Errorf("message mismatch: %+v vs %+v", got, m)
		}
		if len(got.Reports) != len(m.Reports) {
			t.Errorf("reports = %d, want %d", len(got.Reports), len(m.Reports))
		}
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := DecodeMessage([]byte{99}); err != ErrBadFrameType {
		t.Errorf("unknown type err = %v", err)
	}
	if _, err := DecodeMessage([]byte{framePoll, 0}); err == nil {
		t.Error("short poll accepted")
	}
	if _, err := DecodeMessage([]byte{frameReports, 0, 0, 0, 9, 1}); err == nil {
		t.Error("truncated report batch accepted")
	}
}

func TestAgentQueueAndDrop(t *testing.T) {
	a := NewAgent("Q2XX-1", testKey)
	a.QueueLimit = 3
	for i := 0; i < 5; i++ {
		a.Enqueue(&Report{Serial: "Q2XX-1", Timestamp: uint64(i)})
	}
	if a.QueueLen() != 3 {
		t.Errorf("queue = %d, want 3", a.QueueLen())
	}
	if a.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", a.Dropped())
	}
	// Remaining reports are the newest, with monotonically increasing
	// sequence numbers.
	batch := a.reportsMessage(10, "").Reports
	first, err := UnmarshalReport(batch[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Timestamp != 2 || first.SeqNo != 3 {
		t.Errorf("oldest surviving report = ts %d seq %d", first.Timestamp, first.SeqNo)
	}
}

func TestEndToEndHarvest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	agent := NewAgent("Q2XX-E2E", testKey)
	for i := 0; i < 25; i++ {
		r := sampleReport()
		r.Timestamp = uint64(i)
		agent.Enqueue(r)
	}
	go agent.RunWithReconnect(ln.Addr().String(), nil)

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p, err := AcceptPoller(conn, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Serial != "Q2XX-E2E" {
		t.Errorf("serial = %q", p.Serial)
	}

	var all []*Report
	for len(all) < 25 {
		batch, err := p.Poll(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		all = append(all, batch...)
	}
	if len(all) != 25 {
		t.Fatalf("harvested %d reports, want 25", len(all))
	}
	for i, r := range all {
		if r.Timestamp != uint64(i) {
			t.Fatalf("report %d has ts %d; order lost", i, r.Timestamp)
		}
		if len(r.Clients) != 1 || r.Clients[0].Apps[0].App != "Netflix" {
			t.Fatalf("report %d content corrupted", i)
		}
	}
	// Queue drained after acks.
	deadline := time.Now().Add(2 * time.Second)
	for agent.QueueLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if agent.QueueLen() != 0 {
		t.Errorf("agent queue = %d after acks", agent.QueueLen())
	}
}

func TestHarvestSurvivesReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	agent := NewAgent("Q2XX-RC", testKey)
	for i := 0; i < 10; i++ {
		agent.Enqueue(&Report{Serial: "Q2XX-RC", Timestamp: uint64(i)})
	}
	stop := make(chan struct{})
	defer close(stop)
	go agent.RunWithReconnect(ln.Addr().String(), stop)

	// First session: poll 4, then kill the connection WITHOUT acking
	// beyond what was received.
	conn, _ := ln.Accept()
	p, err := AcceptPoller(conn, testKey)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Poll(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 4 {
		t.Fatalf("first poll = %d", len(first))
	}
	p.Close()

	// Device reconnects; the remaining 6 must still arrive.
	conn2, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := AcceptPoller(conn2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	rest, err := p2.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 6 {
		t.Fatalf("after reconnect = %d reports, want 6", len(rest))
	}
	if rest[0].Timestamp != 4 {
		t.Errorf("first remaining ts = %d, want 4", rest[0].Timestamp)
	}
}

func BenchmarkReportMarshal(b *testing.B) {
	r := sampleReport()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Marshal()
	}
}

func BenchmarkReportUnmarshal(b *testing.B) {
	raw := sampleReport().Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalReport(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunnelWriteFrame(b *testing.B) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	tun, _ := NewTunnel(c1, testKey)
	payload := sampleReport().Marshal()
	go func() {
		buf := make([]byte, 65536)
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tun.WriteFrame(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTunnelOversizedLengthPrefix(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	tun, _ := NewTunnel(c2, testKey)
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, uint32(MaxFrameBytes+49))
	go c1.Write(hdr)
	if _, err := tun.ReadFrame(); err != ErrFrameTooBig {
		t.Errorf("oversized frame err = %v, want ErrFrameTooBig", err)
	}
}

func TestTunnelTruncatedFrameCleanError(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	tun, _ := NewTunnel(c2, testKey)
	tun.SetTimeout(2 * time.Second)
	go func() {
		// Header promises 100 bytes; deliver 10 and hang up mid-frame.
		hdr := make([]byte, 4)
		binary.BigEndian.PutUint32(hdr, 100)
		c1.Write(hdr)
		c1.Write(make([]byte, 10))
		c1.Close()
	}()
	start := time.Now()
	if _, err := tun.ReadFrame(); err == nil {
		t.Error("truncated frame accepted")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("truncated frame read did not fail promptly")
	}
}

func TestTunnelStalledPeerTimesOut(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	tun, _ := NewTunnel(c2, testKey)
	tun.SetTimeout(100 * time.Millisecond)

	// Read side: peer never sends.
	start := time.Now()
	_, err := tun.ReadFrame()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("stalled read err = %v, want timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("stalled read overran its timeout")
	}

	// Write side: peer never reads (net.Pipe writes are synchronous).
	start = time.Now()
	err = tun.WriteFrame([]byte("queued report"))
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("stalled write err = %v, want timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("stalled write overran its timeout")
	}
}

func TestDecodeMessageMalformedReportsBatches(t *testing.T) {
	cases := [][]byte{
		{frameReports},                   // missing dropped counter
		{frameReports, 0, 0},             // short dropped counter
		{frameReports, 0, 0, 0, 0, 0, 0}, // short length prefix
		{frameReports, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 1, 2, 3}, // huge report length
	}
	for i, b := range cases {
		if _, err := DecodeMessage(b); err == nil {
			t.Errorf("case %d: malformed batch accepted", i)
		}
	}
	// Dropped counter round-trips.
	m, err := DecodeMessage(EncodeMessage(&Message{Type: frameReports, Dropped: 77, Reports: [][]byte{{9}}}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 77 || len(m.Reports) != 1 {
		t.Errorf("dropped=%d reports=%d, want 77 and 1", m.Dropped, len(m.Reports))
	}
}

func TestSaveLoadQueue(t *testing.T) {
	a := NewAgent("Q2XX-SAVE", testKey)
	for i := 0; i < 5; i++ {
		a.Enqueue(&Report{Serial: a.Serial, Timestamp: uint64(i)})
	}
	var buf bytes.Buffer
	if err := a.SaveQueue(&buf); err != nil {
		t.Fatal(err)
	}

	// Reboot: a fresh agent restores the queue and the seq counter.
	b := NewAgent("Q2XX-SAVE", testKey)
	if err := b.LoadQueue(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if b.QueueLen() != 5 {
		t.Errorf("restored queue = %d, want 5", b.QueueLen())
	}
	b.Enqueue(&Report{Serial: b.Serial, Timestamp: 5})
	last, err := UnmarshalReport(b.reportsMessage(100, "").Reports[5])
	if err != nil {
		t.Fatal(err)
	}
	if last.SeqNo != 6 {
		t.Errorf("post-restore seq = %d, want 6 (no seqno reuse)", last.SeqNo)
	}

	// A stale snapshot must never rewind a newer seq counter.
	c := NewAgent("Q2XX-SAVE", testKey)
	for i := 0; i < 20; i++ {
		c.Enqueue(&Report{Serial: c.Serial})
	}
	if err := c.LoadQueue(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	c.Enqueue(&Report{Serial: c.Serial})
	fresh, err := UnmarshalReport(c.reportsMessage(100, "").Reports[c.QueueLen()-1])
	if err != nil {
		t.Fatal(err)
	}
	if fresh.SeqNo != 21 {
		t.Errorf("seq after stale restore = %d, want 21", fresh.SeqNo)
	}

	// A snapshot from another device is rejected.
	other := NewAgent("Q2XX-OTHER", testKey)
	if err := other.LoadQueue(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("foreign queue snapshot accepted")
	}
}

func TestReconnectJitterDeterministic(t *testing.T) {
	j1, j2 := reconnectJitter("Q2XX-A"), reconnectJitter("Q2XX-A")
	for i := 0; i < 8; i++ {
		if j1.Float64() != j2.Float64() {
			t.Fatal("same serial produced different jitter streams")
		}
	}
	ja, jb := reconnectJitter("Q2XX-A"), reconnectJitter("Q2XX-B")
	same := true
	for i := 0; i < 8; i++ {
		if ja.Float64() != jb.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different serials produced identical jitter streams")
	}
}

func TestAcceptPollerHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Slow-loris: connect and send nothing.
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = AcceptPollerWithTimeout(conn, testKey, 100*time.Millisecond)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("silent client handshake err = %v, want timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("handshake hung past its deadline")
	}
}

func TestMultiHomeFailover(t *testing.T) {
	// Primary is down (listener closed immediately); secondary answers.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	agent := NewAgent("Q2XX-MH", testKey)
	agent.BackoffBase = 5 * time.Millisecond
	agent.Health = &HarvestHealth{}
	for i := 0; i < 5; i++ {
		agent.Enqueue(&Report{Serial: agent.Serial, Timestamp: uint64(i)})
	}
	stop := make(chan struct{})
	defer close(stop)
	go agent.RunAddrs([]string{deadAddr, live.Addr().String()}, stop)

	conn, err := live.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p, err := AcceptPollerWithTimeout(conn, testKey, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := p.Poll(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("failover harvested %d reports, want 5", len(got))
	}
}

func TestHarvestHealthClassification(t *testing.T) {
	h := &HarvestHealth{}
	h.Observe(ErrBadMAC)
	h.Observe(fmt.Errorf("wrapped: %w", ErrBadMAC))
	h.Observe(ErrFrameTooBig)
	h.Observe(os.ErrDeadlineExceeded)
	h.Observe(io.EOF) // ordinary teardown: uncounted
	h.Observe(nil)
	h.AddReconnect()
	h.SetQueueDrops("A", 3)
	h.SetQueueDrops("A", 7) // cumulative: max wins
	h.SetQueueDrops("A", 5)
	h.SetQueueDrops("B", 2)
	s := h.Snapshot()
	want := HealthSnapshot{Reconnects: 1, MACFailures: 2, CorruptFrames: 1, Timeouts: 1, QueueDrops: 9}
	if s != want {
		t.Errorf("snapshot = %+v, want %+v", s, want)
	}
	if s.String() == "" {
		t.Error("empty health string")
	}
}

// TestHarvestHealthClassifiesDecodeErrors pins Observe's classification
// to the errors the real decoders return: a poll over a pipe whose
// fake agent answers with a bad frame counts one corrupt frame and
// acks nothing.
func TestHarvestHealthClassifiesDecodeErrors(t *testing.T) {
	report := sampleReport().Marshal()
	spans := EncodeMessage(&Message{Type: frameReports, Spans: sampleSpans()[:1]})
	// Shorten the one span entry and its length prefix by a byte.
	spans = spans[:len(spans)-1]
	at := len(spans) - len(encodeSpan(sampleSpans()[0])) - 3
	binary.BigEndian.PutUint32(spans[at:], binary.BigEndian.Uint32(spans[at:])-1)
	for _, tc := range []struct {
		name  string
		wire  byte
		frame []byte
		want  error
	}{
		{"truncated v1 report", WireV1, EncodeMessage(&Message{Type: frameReports, Reports: [][]byte{report[:len(report)-1]}}), pbwire.ErrTruncated},
		{"truncated span entry", WireV1, spans, pbwire.ErrTruncated},
		// One report whose serial references entry 5 of an empty
		// dictionary, padded to the smallest report body.
		{"dangling dictionary reference", WireV2, []byte{frameBatch, WireV2, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, pbwire.ErrBadDictRef},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			acked := make(chan bool, 1)
			go func() {
				defer c1.Close()
				tun, err := NewTunnel(c1, testKey)
				if err != nil {
					acked <- false
					return
				}
				tun.WriteFrame(EncodeMessage(&Message{Type: frameHelloV2, Wire: tc.wire, Serial: "Q2HC-0001"}))
				tun.ReadFrame() // the poll
				tun.WriteFrame(tc.frame)
				raw, err := tun.ReadFrame()
				acked <- err == nil && raw[0] == frameAck
			}()
			p, err := AcceptPoller(c2, testKey)
			if err != nil {
				t.Fatalf("AcceptPoller: %v", err)
			}
			p.Health = &HarvestHealth{}
			p.NegotiateWire(tc.wire)
			if got, err := p.Poll(16); !errors.Is(err, tc.want) {
				t.Fatalf("Poll = %d reports, %v; want %v", len(got), err, tc.want)
			}
			p.Close()
			if <-acked {
				t.Error("the bad frame was acked")
			}
			if s := p.Health.Snapshot(); s.CorruptFrames != 1 {
				t.Errorf("health = %+v, want one corrupt frame", s)
			}
		})
	}
}
