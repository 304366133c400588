package telemetry

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"wlanscale/internal/obs/trace"
	"wlanscale/internal/telemetry/pbwire"
)

// Tunnel framing errors.
var (
	ErrBadMAC       = errors.New("telemetry: message authentication failed")
	ErrFrameTooBig  = errors.New("telemetry: frame exceeds limit")
	ErrShortKey     = errors.New("telemetry: key must be 32 bytes")
	ErrBadFrameType = errors.New("telemetry: unknown frame type")
)

// MaxFrameBytes bounds a single tunnel frame.
const MaxFrameBytes = 4 << 20

// Tunnel is an encrypted, authenticated, length-framed message stream
// over a net.Conn — the persistent management tunnel each device keeps
// to the backend. Frames are AES-256-CTR encrypted with a random IV and
// authenticated with HMAC-SHA256 (encrypt-then-MAC). A Tunnel is safe
// for one concurrent reader and one concurrent writer.
type Tunnel struct {
	conn   net.Conn
	encKey [32]byte
	macKey [32]byte
	// timeoutNS bounds each frame op; 0 disables deadlines.
	timeoutNS int64
}

// NewTunnel wraps conn with the given 32-byte pre-shared key. Distinct
// encryption and MAC keys are derived from it.
func NewTunnel(conn net.Conn, key []byte) (*Tunnel, error) {
	if len(key) != 32 {
		return nil, ErrShortKey
	}
	t := &Tunnel{conn: conn}
	t.encKey = sha256.Sum256(append([]byte("enc:"), key...))
	t.macKey = sha256.Sum256(append([]byte("mac:"), key...))
	return t, nil
}

// Close closes the underlying connection.
func (t *Tunnel) Close() error { return t.conn.Close() }

// SetTimeout bounds every subsequent frame op: each ReadFrame and
// WriteFrame must complete within d or fail with a timeout error. A
// stalled or black-holed peer therefore costs at most d, not a hung
// goroutine. Zero disables deadlines.
func (t *Tunnel) SetTimeout(d time.Duration) {
	atomic.StoreInt64(&t.timeoutNS, int64(d))
}

// armRead sets the per-op read deadline, if one is configured.
func (t *Tunnel) armRead() {
	if d := time.Duration(atomic.LoadInt64(&t.timeoutNS)); d > 0 {
		t.conn.SetReadDeadline(time.Now().Add(d))
	}
}

// armWrite sets the per-op write deadline, if one is configured.
func (t *Tunnel) armWrite() {
	if d := time.Duration(atomic.LoadInt64(&t.timeoutNS)); d > 0 {
		t.conn.SetWriteDeadline(time.Now().Add(d))
	}
}

// WriteFrame encrypts and sends one message. The payload is encrypted
// straight into the outgoing frame buffer, the one copy it makes.
func (t *Tunnel) WriteFrame(payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return ErrFrameTooBig
	}
	// Frame: len(4) | iv(16) | ciphertext | hmac(32).
	n := 16 + len(payload) + 32
	frame := make([]byte, 4+n-32, 4+n)
	binary.BigEndian.PutUint32(frame, uint32(n))
	iv := frame[4:20]
	if _, err := rand.Read(iv); err != nil {
		return fmt.Errorf("telemetry: iv: %w", err)
	}
	block, err := aes.NewCipher(t.encKey[:])
	if err != nil {
		return err
	}
	cipher.NewCTR(block, iv).XORKeyStream(frame[20:], payload)

	mac := hmac.New(sha256.New, t.macKey[:])
	mac.Write(frame[4:]) // iv | ciphertext
	frame = mac.Sum(frame)
	t.armWrite()
	_, err = t.conn.Write(frame)
	return err
}

// ReadFrame receives and decrypts one message. The ciphertext is
// decrypted in place, so the returned plaintext is a window onto the
// one buffer the frame was read into.
func (t *Tunnel) ReadFrame() ([]byte, error) {
	var hdr [4]byte
	t.armRead()
	if _, err := io.ReadFull(t.conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes+48 {
		return nil, ErrFrameTooBig
	}
	if n < 48 {
		return nil, ErrBadMAC
	}
	body := make([]byte, n)
	t.armRead()
	if _, err := io.ReadFull(t.conn, body); err != nil {
		return nil, err
	}
	iv := body[:16]
	ct := body[16 : n-32 : n-32]
	tag := body[n-32:]

	mac := hmac.New(sha256.New, t.macKey[:])
	mac.Write(iv)
	mac.Write(ct)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, ErrBadMAC
	}
	block, err := aes.NewCipher(t.encKey[:])
	if err != nil {
		return nil, err
	}
	cipher.NewCTR(block, iv).XORKeyStream(ct, ct)
	return ct, nil
}

// Protocol frame types. The backend pulls: it sends polls, the device
// answers with report batches, and the backend acknowledges so the
// device can drop queued data (Section 2's "backend polls for queued
// information when the connection is reestablished").
const (
	frameHello   = 1 // device -> backend: serial announcement
	framePoll    = 2 // backend -> device: poll(maxReports)
	frameReports = 3 // device -> backend: batch of reports
	frameAck     = 4 // backend -> device: ack(count)

	// Wire v2 (DESIGN.md §10). A v2-capable device opens with
	// frameHelloV2 carrying its maximum wire version; a v2-capable
	// backend answers its polls with framePollV2 and the device replies
	// with delta-coded frameBatch frames. Either side speaking only the
	// v1 constants above keeps the session byte-identical to v1: a
	// backend negotiating v1 polls a v2 device with framePoll, and a v1
	// device never sees framePollV2 because it never announced v2.
	frameHelloV2 = 5 // device -> backend: version + serial announcement
	framePollV2  = 6 // backend -> device: poll(maxReports), answer in v2
	frameBatch   = 7 // device -> backend: delta-coded report batch
)

// Message is one decoded protocol message.
type Message struct {
	Type    byte
	Serial  string   // Hello, HelloV2
	Wire    byte     // HelloV2: device's max wire version; PollV2 echo
	Max     uint32   // Poll, PollV2
	Count   uint32   // Ack
	Dropped uint32   // Reports: device's cumulative queue-overflow drops
	Reports [][]byte // Reports (encoded Report messages)
	// Batch is the decoded v2 payload of a frameBatch message. Its
	// Reports/Spans/Dropped supersede the flat fields above for that
	// frame type.
	Batch *BatchFrame
	// Spans are agent-side trace span events riding along with a report
	// batch (see internal/obs/trace). The block is optional on the wire:
	// it is omitted when empty, so frames from untraced agents are
	// byte-identical to the pre-tracing format, and a trace-aware reader
	// accepts legacy frames unchanged.
	Spans []trace.Event
}

// spanBlockMarker introduces the optional span block inside a
// frameReports payload. It is read from the same position as a report
// length, and no real report length can collide with it: report lengths
// are bounded by the frame size, which the tunnel caps at MaxFrameBytes
// (4 MiB), far below 0xFFFFFFFF.
const spanBlockMarker = 0xFFFFFFFF

// EncodeMessage serializes a protocol message.
func EncodeMessage(m *Message) []byte {
	out := []byte{m.Type}
	switch m.Type {
	case frameHello:
		out = append(out, []byte(m.Serial)...)
	case frameHelloV2:
		out = append(out, m.Wire)
		out = append(out, []byte(m.Serial)...)
	case framePoll:
		out = binary.BigEndian.AppendUint32(out, m.Max)
	case framePollV2:
		out = append(out, m.Wire)
		out = binary.BigEndian.AppendUint32(out, m.Max)
	case frameBatch:
		if m.Batch != nil {
			out = append(out, EncodeBatchPayload(m.Batch)...)
		}
	case frameAck:
		out = binary.BigEndian.AppendUint32(out, m.Count)
	case frameReports:
		out = binary.BigEndian.AppendUint32(out, m.Dropped)
		for _, r := range m.Reports {
			out = binary.BigEndian.AppendUint32(out, uint32(len(r)))
			out = append(out, r...)
		}
		if len(m.Spans) > 0 {
			out = binary.BigEndian.AppendUint32(out, spanBlockMarker)
			for _, sp := range m.Spans {
				b := encodeSpan(sp)
				out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
				out = append(out, b...)
			}
		}
	}
	return out
}

// DecodeMessage parses a protocol message; a batch frame gets a decoder
// of its own (DecodeBatchFrame).
func DecodeMessage(b []byte) (*Message, error) { return decodeMessage(b, nil) }

// decodeMessage parses a protocol message, decoding a batch frame with
// dec, or with a decoder of its own when dec is nil.
func decodeMessage(b []byte, dec *BatchDecoder) (*Message, error) {
	if len(b) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	m := &Message{Type: b[0]}
	rest := b[1:]
	switch m.Type {
	case frameHello:
		m.Serial = string(rest)
	case frameHelloV2:
		if len(rest) < 1 {
			return nil, io.ErrUnexpectedEOF
		}
		m.Wire = rest[0]
		m.Serial = string(rest[1:])
	case framePollV2:
		if len(rest) < 5 {
			return nil, io.ErrUnexpectedEOF
		}
		m.Wire = rest[0]
		m.Max = binary.BigEndian.Uint32(rest[1:])
	case frameBatch:
		if dec == nil {
			dec = new(BatchDecoder)
		}
		bf, err := dec.Decode(rest)
		if err != nil {
			return nil, err
		}
		m.Batch = bf
		m.Dropped = bf.Dropped
		m.Spans = bf.Spans
	case framePoll, frameAck:
		if len(rest) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		v := binary.BigEndian.Uint32(rest)
		if m.Type == framePoll {
			m.Max = v
		} else {
			m.Count = v
		}
	case frameReports:
		if len(rest) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		m.Dropped = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		inSpans := false
		for len(rest) > 0 {
			if len(rest) < 4 {
				return nil, io.ErrUnexpectedEOF
			}
			n := binary.BigEndian.Uint32(rest)
			rest = rest[4:]
			if n == spanBlockMarker && !inSpans {
				// Everything after the marker is span records.
				inSpans = true
				continue
			}
			if uint32(len(rest)) < n {
				return nil, io.ErrUnexpectedEOF
			}
			if inSpans {
				d := pbwire.NewDecoder(rest[:n])
				sp := decodeSpan(d)
				if err := d.Err(); err != nil {
					return nil, err
				}
				m.Spans = append(m.Spans, sp)
			} else {
				m.Reports = append(m.Reports, rest[:n])
			}
			rest = rest[n:]
		}
	default:
		return nil, ErrBadFrameType
	}
	return m, nil
}
