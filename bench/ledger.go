package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// The ledger: isolated single-layer loops over the same reports the
// workload sends, timing calls into each layer's exported functions
// from outside. Times are µs per report unless the name says otherwise;
// _allocs are exact counts (testing.AllocsPerRun) and repeat exactly for
// a seed.

const (
	ledgerBatch  = 64 // reports per poll, as merakid -batch 64
	ledgerSlices = 5  // timed slices per loop; the median is reported
	walAppends   = 60 // AppendBatch calls per slice of the WAL loops
)

// ledgerBudget is how long each isolated loop measures for.
func (e *env) ledgerBudget() time.Duration {
	if e.quick {
		return 5 * time.Millisecond
	}
	return 250 * time.Millisecond
}

// reconcileTolerance is how far the isolated hops' sum may be from the
// replica's round. The 5 ms loops of a -quick run are too short to mean
// much, so there only a gross mismatch fails.
func (e *env) reconcileTolerance() float64 {
	if e.quick {
		return 0.5
	}
	return 0.15
}

// perCallUS times f in ledgerSlices equal slices sized to fill budget
// and returns the median slice's µs per call.
func perCallUS(budget time.Duration, f func()) float64 {
	// Calibrate on doubling batches, so a slow first call (cold caches,
	// a connection's first bytes) does not set the slice size.
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(t); el >= budget/(4*ledgerSlices) || n >= 1<<20 {
			n = max(1, int(float64(n)*float64(budget/ledgerSlices)/float64(max(el, time.Nanosecond))))
			break
		}
		n *= 2
	}
	slices := make([]float64, ledgerSlices)
	for s := range slices {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		slices[s] = float64(time.Since(t)) / float64(time.Microsecond) / float64(n)
	}
	return median(slices)
}

// onceMS times one call of f, in ms: for operations too heavy to loop.
func onceMS(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return float64(time.Since(t)) / float64(time.Millisecond), err
}

// medianOf3MS is the median of three timed calls, in ms.
func medianOf3MS(f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		v, err := onceMS(f)
		if err != nil {
			return 0, err
		}
		ms = append(ms, v)
	}
	return median(ms), nil
}

// ledgerInput is the report sample every loop runs over: the first
// reports of a feed, sequence numbers stamped, with their v1 encodings
// and grouped into poll-sized v2 batch payloads.
type ledgerInput struct {
	reports []*telemetry.Report
	raw     [][]byte // v1 encoding of reports[i]
	batches [][]byte // v2 payload of reports[64k : 64k+64]
}

func newLedgerInput(f *feed, from, n int) *ledgerInput {
	in := &ledgerInput{}
	for j := 0; j < n; j++ {
		r := f.at(from + j)
		r.SeqNo = uint64(j + 1)
		in.reports = append(in.reports, r)
		in.raw = append(in.raw, r.Marshal())
	}
	for lo := 0; lo+ledgerBatch <= n; lo += ledgerBatch {
		in.batches = append(in.batches, encodeBatch(in.reports[lo:lo+ledgerBatch]))
	}
	return in
}

func encodeBatch(reports []*telemetry.Report) []byte {
	be := telemetry.NewBatchEncoder(0)
	for _, r := range reports {
		be.Add(r)
	}
	return be.Finish(0, 0, nil)
}

// codecLedger measures the telemetry codec, both wire versions.
func codecLedger(budget time.Duration, in *ledgerInput, m map[string]float64) error {
	i := 0
	next := func() int { i = (i + 1) % len(in.reports); return i }
	m["telemetry.marshal_us"] = perCallUS(budget, func() { in.reports[next()].Marshal() })
	var decodeErr error
	m["telemetry.unmarshal_us"] = perCallUS(budget, func() {
		if _, err := telemetry.UnmarshalReport(in.raw[next()]); err != nil {
			decodeErr = err
		}
	})
	b := 0
	nextBatch := func() int { b = (b + 1) % len(in.batches); return b }
	m["telemetry.batch_encode_us"] = perCallUS(budget, func() {
		lo := nextBatch() * ledgerBatch
		encodeBatch(in.reports[lo : lo+ledgerBatch])
	}) / ledgerBatch
	m["telemetry.batch_decode_us"] = perCallUS(budget, func() {
		if _, err := telemetry.DecodeBatchFrame(in.batches[nextBatch()]); err != nil {
			decodeErr = err
		}
	}) / ledgerBatch
	// The v1 reports frame: 64 already-encoded reports wrapped into one
	// message and unwrapped again (the reports themselves are decoded by
	// UnmarshalReport, above).
	var frame []byte
	m["telemetry.reports_frame_encode_us"] = perCallUS(budget, func() {
		lo := nextBatch() * ledgerBatch
		frame = telemetry.EncodeMessage(&telemetry.Message{Type: wireFrameReports, Reports: in.raw[lo : lo+ledgerBatch]})
	})
	m["telemetry.reports_frame_decode_us"] = perCallUS(budget, func() {
		if msg, err := telemetry.DecodeMessage(frame); err != nil || len(msg.Reports) != ledgerBatch {
			decodeErr = fmt.Errorf("reports frame decoded to %d reports: %v", len(msg.Reports), err)
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("codec ledger: %w", decodeErr)
	}
	m["telemetry.marshal_allocs"] = testing.AllocsPerRun(20, func() { in.reports[0].Marshal() })
	m["telemetry.unmarshal_allocs"] = testing.AllocsPerRun(20, func() { telemetry.UnmarshalReport(in.raw[0]) })
	m["telemetry.batch_encode_allocs"] = testing.AllocsPerRun(20, func() { encodeBatch(in.reports[:ledgerBatch]) })
	m["telemetry.batch_decode_allocs"] = testing.AllocsPerRun(20, func() { telemetry.DecodeBatchFrame(in.batches[0]) })
	v1, v2 := 0, 0
	for _, raw := range in.raw[:len(in.batches)*ledgerBatch] {
		v1 += len(raw)
	}
	for _, p := range in.batches {
		v2 += len(p)
	}
	n := float64(len(in.batches) * ledgerBatch)
	m["telemetry.v1_bytes"] = float64(v1) / n
	m["telemetry.v2_bytes"] = float64(v2) / n
	return nil
}

// memConn is a net.Conn over memory: writes are captured (or dropped
// once capture is off), reads replay a fixed byte string for ever. It
// lets the tunnel's framing, cipher and MAC be timed without a socket.
type memConn struct {
	net.Conn // nil; only the methods below are called
	captured []byte
	capture  bool
	replay   []byte
	pos      int
}

func (c *memConn) Write(b []byte) (int, error) {
	if c.capture {
		c.captured = append(c.captured, b...)
	}
	return len(b), nil
}

func (c *memConn) Read(b []byte) (int, error) {
	if c.pos == len(c.replay) {
		c.pos = 0
	}
	n := copy(b, c.replay[c.pos:])
	c.pos += n
	return n, nil
}

func (c *memConn) Close() error                     { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// tunnelFrame is what one tunnel frame costs to write and to read.
type tunnelFrame struct{ writeUS, readUS float64 }

// replayTunnel returns a tunnel over memory whose reads replay one frame
// carrying payload for ever and whose writes go nowhere.
func replayTunnel(payload []byte) (*telemetry.Tunnel, error) {
	conn := &memConn{capture: true}
	t, err := telemetry.NewTunnel(conn, tunnelKey)
	if err != nil {
		return nil, err
	}
	if err := t.WriteFrame(payload); err != nil {
		return nil, err
	}
	conn.capture, conn.replay = false, conn.captured
	return t, nil
}

func timeTunnelFrame(budget time.Duration, payload []byte) (tunnelFrame, error) {
	t, err := replayTunnel(payload)
	if err != nil {
		return tunnelFrame{}, err
	}
	var out tunnelFrame
	var ioErr error
	out.writeUS = perCallUS(budget, func() {
		if err := t.WriteFrame(payload); err != nil {
			ioErr = err
		}
	})
	out.readUS = perCallUS(budget, func() {
		if _, err := t.ReadFrame(); err != nil {
			ioErr = err
		}
	})
	return out, ioErr
}

// Frame types of the harvest protocol, as they appear on the wire (the
// package keeps the names to itself; the values are pinned by its
// byte-identity tests). A wrong value fails loudly: DecodeMessage
// rejects the frame.
const (
	wireFrameReports = 3 // device → backend: v1 batch of encoded reports
	wireFrameAck     = 4 // backend → device: ack(count)
)

// smallFrame is an ack, the smallest frame of a poll round.
var smallFrame = telemetry.EncodeMessage(&telemetry.Message{Type: wireFrameAck, Count: ledgerBatch})

// tunnelLedger measures the tunnel at the two frame sizes that matter:
// ack-sized (per-frame cost) and a 64-report batch (per-KiB cost).
func tunnelLedger(budget time.Duration, in *ledgerInput, m map[string]float64) (small tunnelFrame, err error) {
	if small, err = timeTunnelFrame(budget, smallFrame); err != nil {
		return
	}
	batch, err := timeTunnelFrame(budget, in.batches[0])
	if err != nil {
		return
	}
	kib := float64(len(in.batches[0])) / 1024
	m["telemetry.tunnel_write_us_per_frame_small"] = small.writeUS
	m["telemetry.tunnel_read_us_per_frame_small"] = small.readUS
	m["telemetry.tunnel_write_us_per_kib"] = batch.writeUS / kib
	m["telemetry.tunnel_read_us_per_kib"] = batch.readUS / kib
	t, err := replayTunnel(smallFrame)
	if err != nil {
		return
	}
	m["telemetry.tunnel_allocs_per_frame"] = testing.AllocsPerRun(20, func() {
		t.WriteFrame(smallFrame)
		t.ReadFrame()
	})
	return
}

// walLedger measures the write-ahead log with the two record shapes the
// harvest path appends — 16 v1 records per call, one v2 frame per call —
// under the two fsync policies the daemons run with, then reads it back.
func walLedger(tmp string, in *ledgerInput, m map[string]float64) error {
	shapes := []struct {
		name  string
		batch func(k int) [][]byte
	}{
		{"v1", func(k int) [][]byte { lo := k * 16 % (len(in.raw) - 16); return in.raw[lo : lo+16] }},
		{"v2", func(k int) [][]byte { return in.batches[k%len(in.batches) : k%len(in.batches)+1] }},
	}
	for _, pol := range []wal.Policy{wal.PolicyOff, wal.PolicyInterval} {
		for _, sh := range shapes {
			dir := filepath.Join(tmp, fmt.Sprintf("wal-%s-%s", pol, sh.name))
			l, err := wal.Open(dir, wal.Options{Policy: pol})
			if err != nil {
				return err
			}
			// A fixed number of appends, not a time budget: the log's size
			// and segment count then repeat exactly.
			records, payload := 0, 0
			var appendErr error
			slices := make([]float64, ledgerSlices)
			for s := range slices {
				t := time.Now()
				for k := s * walAppends; k < (s+1)*walAppends; k++ {
					b := sh.batch(k)
					records += len(b)
					for _, p := range b {
						payload += len(p)
					}
					if _, err := l.AppendBatch(b); err != nil {
						appendErr = err
					}
				}
				slices[s] = float64(time.Since(t)) / float64(time.Microsecond) / walAppends
			}
			us := median(slices)
			segments := l.Segments()
			if err := l.Close(); err != nil {
				return err
			}
			if appendErr != nil {
				return fmt.Errorf("wal ledger: %w", appendErr)
			}
			m[fmt.Sprintf("wal.append_us_per_batch_%s_%s", pol, sh.name)] = us
			if pol != wal.PolicyOff || sh.name != "v1" {
				os.RemoveAll(dir)
				continue
			}
			// Read back the log of per-report records.
			disk, err := dirBytes(dir)
			if err != nil {
				return err
			}
			m["wal.disk_bytes_per_payload_byte"] = float64(disk) / float64(payload)
			m["wal.segments"] = float64(segments)
			t := time.Now()
			l, err = wal.Open(dir, wal.Options{Policy: pol})
			if err != nil {
				return err
			}
			st, err := l.Replay(0, func(wal.LSN, []byte) error { return nil })
			took := time.Since(t)
			l.Close()
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			if st.Records != records {
				return fmt.Errorf("wal ledger: replayed %d of %d records", st.Records, records)
			}
			m["wal.replay_us_per_record"] = float64(took) / float64(time.Microsecond) / float64(records)
		}
	}
	return nil
}

// storeLedger measures Store.Ingest on first sightings and on clients
// already present. f must front at least a lap of APs.
func storeLedger(f *feed, m map[string]float64) {
	span := f.hi - f.lo
	laps := 6
	reports := make([]*telemetry.Report, 0, laps*span)
	for j := 0; j < laps*span; j++ {
		r := f.at(j)
		r.SeqNo = uint64(j + 1)
		reports = append(reports, r)
	}
	s := backend.NewStore()
	t := time.Now()
	for _, r := range reports[:span] {
		s.Ingest(r)
	}
	m["backend.ingest_us_new"] = float64(time.Since(t)) / float64(time.Microsecond) / float64(span)
	var laptimes []float64
	for lap := 1; lap < laps; lap++ {
		t := time.Now()
		for _, r := range reports[lap*span : (lap+1)*span] {
			s.Ingest(r)
		}
		laptimes = append(laptimes, float64(time.Since(t))/float64(time.Microsecond)/float64(span))
	}
	m["backend.ingest_us_known"] = median(laptimes)
	// SeqNo 0 bypasses dedup, so the same report can be ingested again
	// and again; its clients are known by now.
	again := *reports[0]
	again.SeqNo = 0
	m["backend.ingest_allocs"] = testing.AllocsPerRun(50, func() { s.Ingest(&again) })
}

// buildStore ingests reports [0, n) of every feed into a fresh store.
func buildStore(feeds []*feed, n int) *backend.Store {
	s := backend.NewStore()
	ingestControl(s, feeds, 0, n, false)
	return s
}

// heapLedger measures what a store of the given shape holds on the
// heap, per client aggregate and per report ingested.
func heapLedger(feeds []*feed, n int, m map[string]float64) *backend.Store {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := buildStore(feeds, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	ing, _ := s.Stats()
	m["backend.heap_bytes_per_client"] = delta / float64(s.NumClients())
	m["backend.heap_bytes_per_report"] = delta / float64(ing)
	return s
}

// movedNetworks is the set a 2→3 rebalance moves: the networks of s
// whose home under the three-shard map differs from the two-shard one.
func movedNetworks(s *backend.Store) []uint64 {
	old, new := cluster.NewMap(2), cluster.NewMap(3)
	var ids []uint64
	for _, id := range s.Networks(backend.NetworkOfSerial) {
		if old.Shard(id) != new.Shard(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// controlLedger measures the store's control-plane operations and the
// cluster's snapshot transport on store s, the workload's own size. dir
// is a pre-built durable directory holding the same store, for the
// checkpoint and recovery timings. Spans go to tr under parent.
func controlLedger(tr *tracer, parent int, s *backend.Store, dir string, m map[string]float64) error {
	timed := func(layer, name string, f func() error) (float64, error) {
		return medianOf3MS(func() error {
			id := tr.start(layer, name, parent, 0)
			defer tr.end(id)
			return f()
		})
	}
	var err error
	if m["backend.digest_ms"], err = timed("backend", "Digest", func() error { s.Digest(); return nil }); err != nil {
		return err
	}
	var snap bytes.Buffer
	if m["backend.save_ms"], err = timed("backend", "Save", func() error { snap.Reset(); return s.Save(&snap) }); err != nil {
		return err
	}
	m["backend.save_bytes"] = float64(snap.Len())
	if m["backend.load_ms"], err = timed("backend", "Load", func() error {
		return backend.NewStore().Load(bytes.NewReader(snap.Bytes()))
	}); err != nil {
		return err
	}
	if m["backend.merge_snapshot_ms"], err = timed("backend", "MergeSnapshot", func() error {
		return backend.NewStore().MergeSnapshot(bytes.NewReader(snap.Bytes()))
	}); err != nil {
		return err
	}

	ids := movedNetworks(s)
	if len(ids) == 0 {
		return fmt.Errorf("control ledger: a 2→3 rebalance would move no network of this store")
	}
	var slice *backend.Store
	if m["backend.extract_ms"], err = timed("backend", "ExtractNetworks", func() error {
		slice = s.ExtractNetworks(backend.IDSet(ids), backend.NetworkOfSerial)
		return nil
	}); err != nil {
		return err
	}
	var sliceSnap bytes.Buffer
	if err := slice.Save(&sliceSnap); err != nil {
		return err
	}
	if m["backend.absorb_ms"], err = timed("backend", "Absorb", func() error {
		_, err := backend.NewStore().Absorb("ledger", ids, bytes.NewReader(sliceSnap.Bytes()), backend.NetworkOfSerial)
		return err
	}); err != nil {
		return err
	}

	var lines bytes.Buffer
	if m["cluster.snapshot_encode_ms"], err = timed("cluster", "WriteSnapshotLines", func() error {
		lines.Reset()
		return cluster.WriteSnapshotLines(&lines, s)
	}); err != nil {
		return err
	}
	m["cluster.snapshot_lines_bytes"] = float64(lines.Len())
	split := strings.Split(strings.TrimSuffix(lines.String(), "\n"), "\n")
	if m["cluster.snapshot_decode_ms"], err = timed("cluster", "DecodeSnapshotLines", func() error {
		r, err := cluster.DecodeSnapshotLines(split)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, r)
		return err
	}); err != nil {
		return err
	}

	// Recovery and checkpoint over the pre-built directory: OpenDurable
	// takes the checkpoint-load path, Checkpoint rewrites the snapshot.
	var ds *backend.DurableStore
	if m["backend.recover_ms"], err = onceMS(func() error {
		id := tr.start("backend", "OpenDurable", parent, 0)
		defer tr.end(id)
		ds, _, err = backend.OpenDurable(dir, backend.DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff}})
		return err
	}); err != nil {
		return err
	}
	defer ds.Close()
	m["backend.checkpoint_ms"], err = timed("backend", "Checkpoint", ds.Checkpoint)
	return err
}
