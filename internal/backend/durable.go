package backend

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wlanscale/internal/obs"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// DurableOptions tunes OpenDurable. The zero value is usable: default
// WAL options, two checkpoint generations kept.
type DurableOptions struct {
	// WAL configures the write-ahead log (segment size, fsync policy,
	// crash injection for tests).
	WAL wal.Options
	// KeepCheckpoints is how many checkpoint generations to retain;
	// recovery falls back one generation when the newest is corrupt.
	// Zero means 2.
	KeepCheckpoints int
}

// RecoveryStats describes what OpenDurable found and rebuilt.
type RecoveryStats struct {
	// CheckpointLSN is the WAL position the restored checkpoint covers
	// (0 when no checkpoint loaded).
	CheckpointLSN wal.LSN
	// CheckpointFile is the checkpoint restored, "" when none.
	CheckpointFile string
	// Fallbacks counts corrupt checkpoint generations skipped before one
	// loaded (or all were exhausted).
	Fallbacks int
	// Replayed is how many WAL records were re-ingested; Skipped is how
	// many the checkpoint already covered; TornBytes is the torn tail
	// discarded from the final segment.
	Replayed  int
	Skipped   int
	TornBytes int64
	// BadRecords counts CRC-valid WAL payloads that failed report
	// decoding (should be zero; nonzero means a writer bug, not disk
	// damage).
	BadRecords int
	// Elapsed is the whole recovery's wall time: checkpoint load, torn
	// tail repair and WAL replay.
	Elapsed time.Duration
}

func (r RecoveryStats) String() string {
	return fmt.Sprintf("checkpoint_lsn=%d fallbacks=%d replayed=%d skipped=%d torn_bytes=%d bad_records=%d elapsed_ms=%d",
		r.CheckpointLSN, r.Fallbacks, r.Replayed, r.Skipped, r.TornBytes, r.BadRecords, r.Elapsed.Milliseconds())
}

// DurableStore is a Store whose ingests survive process death: every
// report's wire bytes are appended to a write-ahead log before the
// harvest path acknowledges them, and periodic checkpoints bound
// replay time. Recovery (OpenDurable) loads the newest valid
// checkpoint — falling back one generation on corruption — and
// replays the WAL above it through the ordinary Ingest path. A
// checkpoint is exactly the state at its LSN (see Checkpoint), so
// replay applies each record above it once and none below it.
//
// When the WAL write path fails (disk full, I/O error) the store goes
// degraded: IngestBatch refuses further writes, so pollers stop
// acknowledging and devices queue — reports back up at the edge
// instead of being acked into a black hole. Queries keep serving the
// in-memory state.
type DurableStore struct {
	*Store

	dir  string
	log  *wal.Log
	keep int

	// flight makes "in the WAL" and "in the store" one step as far as
	// Checkpoint can tell: logged holds the read side across
	// append+apply, and Checkpoint takes the write side to read the next
	// LSN and capture the store together, so the snapshot holds every
	// record below that LSN and none at or above it.
	flight sync.RWMutex

	mu       sync.Mutex // serializes Checkpoint; guards ckptLSN
	ckptLSN  wal.LSN
	degraded atomic.Bool
	recovery time.Duration // RecoveryStats.Elapsed, for wal.recovery_ms

	ckptDur          *obs.Histogram
	ckpts, ckptFails *obs.Counter
	walFails         *obs.Counter
}

// ErrDegraded is returned by IngestBatch once the WAL write path has
// failed; the daemon is read-only until restarted with a healthy disk.
var ErrDegraded = fmt.Errorf("backend: durable store is degraded (WAL write failed); refusing to ack")

const checkpointGlob = "checkpoint-*.gob"

func checkpointName(lsn wal.LSN) string { return fmt.Sprintf("checkpoint-%016x.gob", uint64(lsn)) }

func parseCheckpointName(name string) (wal.LSN, bool) {
	var v uint64
	if n, err := fmt.Sscanf(name, "checkpoint-%016x.gob", &v); n != 1 || err != nil {
		return 0, false
	}
	// Sscanf ignores trailing input, so reconstruct and compare: a
	// SaveFile temp husk ("checkpoint-...gob.tmp-123") left by a crash
	// mid-checkpoint must not be mistaken for a real generation.
	if name != checkpointName(wal.LSN(v)) {
		return 0, false
	}
	return wal.LSN(v), true
}

// listCheckpoints returns checkpoint LSNs in dir, descending (newest
// first).
func listCheckpoints(dir string) ([]wal.LSN, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []wal.LSN
	for _, e := range ents {
		if lsn, ok := parseCheckpointName(e.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	return lsns, nil
}

// OpenDurable opens (or creates) a durable store rooted at dir:
// checkpoints and WAL segments live side by side in the one
// directory. Recovery order: newest checkpoint that loads cleanly,
// then WAL replay from its LSN, with the WAL's own torn-tail repair
// running first. A corrupt newest checkpoint falls back one
// generation — the WAL is only ever truncated below the oldest kept
// checkpoint, so the fallback generation still has every record it
// needs ahead of it. Replay decodes records ahead on every core and
// applies them in LSN order on one goroutine (see replay).
func OpenDurable(dir string, o DurableOptions) (*DurableStore, RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}
	keep := o.KeepCheckpoints
	if keep <= 0 {
		keep = 2
	}
	d := &DurableStore{Store: NewStore(), dir: dir, keep: keep}

	// A crash inside SaveFile leaves a temp file the rename never
	// promoted; sweep such husks so they cannot accumulate.
	if husks, err := filepath.Glob(filepath.Join(dir, checkpointGlob+".tmp-*")); err == nil {
		for _, h := range husks {
			os.Remove(h)
		}
	}
	lsns, err := listCheckpoints(dir)
	if err != nil {
		return nil, stats, err
	}
	for _, lsn := range lsns {
		path := filepath.Join(dir, checkpointName(lsn))
		if err := d.Store.LoadFile(path); err != nil {
			// Corrupt or torn checkpoint: fall back a generation. Load
			// installs nothing unless the whole file decodes, so the
			// store is still empty.
			log.Printf("backend: checkpoint %s unreadable (%v), falling back", filepath.Base(path), err)
			stats.Fallbacks++
			continue
		}
		d.ckptLSN = lsn
		stats.CheckpointLSN = lsn
		stats.CheckpointFile = path
		break
	}

	wlog, err := wal.Open(dir, o.WAL)
	if err != nil {
		return nil, stats, err
	}
	d.log = wlog
	rstats, err := d.replay(&stats)
	if err != nil {
		wlog.Close()
		return nil, stats, err
	}
	stats.Replayed = rstats.Records
	stats.Skipped = rstats.Skipped
	stats.TornBytes = rstats.TornBytes + wlog.TornAtOpen()
	stats.Elapsed = time.Since(start)
	d.recovery = stats.Elapsed
	return d, stats, nil
}

// replayRecord is one WAL record decoded ahead of the apply step: the
// reports to ingest, a migration step to apply, or neither when the
// payload did not decode. A v2 batch's reports live in dec's arena,
// which goes back to the replay's pool once they are ingested.
type replayRecord struct {
	reports []*telemetry.Report
	mig     *migration
	bad     bool
	dec     *telemetry.BatchDecoder
}

// decodeRecord decodes one WAL payload without touching the store, so
// any number may run at once. Three record shapes share the log: a v1
// per-report record is one pbwire-encoded report, a v2 record is a
// whole batch payload (IngestBatchFrame), and a migration record
// carries a rebalance operation (durable_migrate.go). The leading byte
// discriminates — a batch opens with its version byte (2), migration
// records claim 0x03–0x06, and a pbwire tag is always field<<3|type
// with field >= 1, so a report record can never start below 0x08. A
// batch decodes with a decoder from decoders.
func decodeRecord(payload []byte, decoders *sync.Pool) replayRecord {
	switch {
	case isMigrationRecord(payload):
		m, err := decodeMigrationRecord(payload)
		if err != nil {
			return replayRecord{bad: true}
		}
		return replayRecord{mig: &m}
	case len(payload) > 0 && payload[0] == telemetry.WireV2:
		dec := decoders.Get().(*telemetry.BatchDecoder)
		f, err := dec.Decode(payload)
		if err != nil {
			decoders.Put(dec)
			return replayRecord{bad: true}
		}
		return replayRecord{reports: f.Reports, dec: dec}
	}
	r, err := telemetry.UnmarshalReport(payload)
	if err != nil {
		return replayRecord{bad: true}
	}
	return replayRecord{reports: []*telemetry.Report{r}}
}

// replay re-applies the WAL above the checkpoint through an ordered
// pipeline. The caller's goroutine reads and CRC-checks records in LSN
// order (wal.Replay); GOMAXPROCS workers decode them, since decoding is
// pure; one apply goroutine takes each record's decode in LSN order and
// applies it. Applying stays serial because a migration record is a
// barrier — an absorb or drop acts on every ingest before it, and the
// ingests after it build on its result. At most 4×GOMAXPROCS records
// wait decoded or decoding ahead of the apply step, which bounds a
// recovering daemon's memory whatever the log's length. Batch records
// decode into arenas from a pool that lives as long as the replay: a
// worker takes one, the apply step returns it after ingesting, and an
// empty pool makes a new one rather than wait, so the pool cannot stall
// the pipeline and never holds more arenas than records were in flight
// at once. On a read error every goroutine finishes its in-flight
// records and exits before replay returns.
func (d *DurableStore) replay(stats *RecoveryStats) (wal.ReplayStats, error) {
	type job struct {
		payload []byte
		out     chan replayRecord
	}
	decoders := sync.Pool{New: func() any { return new(telemetry.BatchDecoder) }}
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan job, 4*workers)
	order := make(chan chan replayRecord, 4*workers)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for range workers {
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.out <- decodeRecord(j.payload, &decoders)
			}
		}()
	}
	go func() {
		defer wg.Done()
		for out := range order {
			rec := <-out
			switch {
			case rec.bad:
				stats.BadRecords++
			case rec.mig != nil:
				if err := d.applyMigration(*rec.mig); err != nil {
					stats.BadRecords++
				}
			default:
				for _, r := range rec.reports {
					d.Store.Ingest(r)
				}
				if rec.dec != nil {
					decoders.Put(rec.dec)
				}
			}
		}
	}()
	rstats, err := d.log.Replay(d.ckptLSN, func(_ wal.LSN, payload []byte) error {
		out := make(chan replayRecord, 1)
		order <- out
		jobs <- job{payload, out}
		return nil
	})
	close(jobs)
	close(order)
	wg.Wait()
	return rstats, err
}

// WAL exposes the underlying log (metrics registration, tests).
func (d *DurableStore) WAL() *wal.Log { return d.log }

// Degraded reports whether the WAL write path has failed.
func (d *DurableStore) Degraded() bool { return d.degraded.Load() }

// CheckpointLSN returns the WAL position covered by the newest
// on-disk checkpoint.
func (d *DurableStore) CheckpointLSN() wal.LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ckptLSN
}

// IngestBatch makes a batch of harvested reports durable and folds
// them into the store, in that order: wire bytes reach the WAL (one
// write syscall for the batch) before any in-memory state changes, so
// the caller may acknowledge the batch to the device the moment
// IngestBatch returns nil. raw[i] must be the pbwire encoding of
// reports[i]; pass nil raw to have the batch re-marshaled (replay
// produces identical bytes either way).
//
// On WAL failure the store flips to degraded and every future call
// returns ErrDegraded without acking — the device keeps its queue.
func (d *DurableStore) IngestBatch(reports []*telemetry.Report, raw [][]byte) error {
	if len(reports) == 0 {
		return nil
	}
	if raw == nil {
		raw = make([][]byte, len(reports))
		for i, r := range reports {
			raw[i] = r.Marshal()
		}
	}
	return d.logged(raw, func() { d.ingest(reports) })
}

// IngestBatchFrame is the v2-harvest counterpart of IngestBatch: the
// whole delta-coded batch payload becomes a single WAL record — one
// append, one CRC frame, no per-report re-marshal — before the decoded
// reports fold into the store. Replay tells the two record shapes
// apart by the leading byte (see OpenDurable). reports must be the
// decoded contents of payload; the ack contract is IngestBatch's.
func (d *DurableStore) IngestBatchFrame(reports []*telemetry.Report, payload []byte) error {
	if len(reports) == 0 {
		return nil
	}
	return d.logged([][]byte{payload}, func() { d.ingest(reports) })
}

func (d *DurableStore) ingest(reports []*telemetry.Report) {
	for _, r := range reports {
		d.Store.Ingest(r)
	}
}

// logged is the store's one write path, shared by report batches and
// migration steps: it appends records to the WAL in one write and then
// runs apply, both under the flight read lock, so a checkpoint's cut
// never falls between a record and its effect. A failed append flips
// the store to degraded, and from then on every call returns
// ErrDegraded without touching the WAL or the store.
func (d *DurableStore) logged(records [][]byte, apply func()) error {
	if d.degraded.Load() {
		return ErrDegraded
	}
	d.flight.RLock()
	defer d.flight.RUnlock()
	if _, err := d.log.AppendBatch(records); err != nil {
		d.degraded.Store(true)
		d.walFails.Inc()
		return fmt.Errorf("backend: wal append: %w", err)
	}
	apply()
	return nil
}

// Checkpoint writes an atomic snapshot of exactly the state at the
// captured LSN — every WAL record below it, none at or above it —
// prunes checkpoint generations beyond the retention count, and
// truncates WAL segments wholly below the oldest kept generation. Safe
// to call concurrently with ingestion, which waits only for the
// capture, not for the encode and fsync; calls are serialized.
func (d *DurableStore) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	sp := obs.StartSpan(d.ckptDur)
	defer sp.End()

	// With the flight write lock held, no batch sits between "in the
	// WAL" and "in the store", and none can start: the capture is the
	// state at lsn.
	d.flight.Lock()
	lsn := d.log.NextLSN()
	snap := d.Store.capture()
	d.flight.Unlock()

	path := filepath.Join(d.dir, checkpointName(lsn))
	if err := d.Store.saveFile(path, snap); err != nil {
		d.ckptFails.Inc()
		return fmt.Errorf("backend: checkpoint: %w", err)
	}
	d.ckptLSN = lsn
	d.ckpts.Inc()

	// Prune old generations, then drop WAL segments no kept generation
	// needs. Both are best-effort: leftovers cost disk, not correctness.
	lsns, err := listCheckpoints(d.dir)
	if err != nil {
		return nil
	}
	oldestKept := lsn
	for i, old := range lsns {
		if i < d.keep {
			if old < oldestKept {
				oldestKept = old
			}
			continue
		}
		os.Remove(filepath.Join(d.dir, checkpointName(old)))
	}
	d.log.TruncateBelow(oldestKept)
	return nil
}

// EnableDurableObs registers the durability metrics on reg —
// checkpoint.duration_us, checkpoint.count, checkpoint.failures,
// checkpoint.lsn, wal.write_failures, wal.degraded, and
// wal.recovery_ms (how long OpenDurable took) — alongside the
// WAL's own wal.* metrics and the store's store.* set.
func (d *DurableStore) EnableDurableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.Store.EnableObs(reg)
	d.log.EnableObs(reg)
	d.ckptDur = reg.Histogram("checkpoint.duration_us", obs.DurationBuckets)
	d.ckpts = reg.Counter("checkpoint.count")
	d.ckptFails = reg.Counter("checkpoint.failures")
	d.walFails = reg.Counter("wal.write_failures")
	reg.RegisterFunc("checkpoint.lsn", func() int64 { return int64(d.CheckpointLSN()) })
	reg.RegisterFunc("wal.recovery_ms", func() int64 { return d.recovery.Milliseconds() })
	reg.RegisterFunc("wal.degraded", func() int64 {
		if d.Degraded() {
			return 1
		}
		return 0
	})
}

// Close checkpoints nothing; it syncs and closes the WAL. Call
// Checkpoint first for a fast next boot.
func (d *DurableStore) Close() error {
	return d.log.Close()
}
