package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wlanscale/internal/obs"
)

// LSN is a log sequence number: the 1-based index of a record in the
// log. 0 means "before every record" (an empty log's first append gets
// LSN 1).
type LSN uint64

// Policy selects when appends reach stable storage.
type Policy int

const (
	// PolicyInterval fsyncs at most once per Options.Interval, amortizing
	// the flush across appends. Every append still write(2)s to the
	// kernel before returning, so process death (SIGKILL, panic) loses
	// nothing — only an OS crash or power loss can lose the unsynced
	// window. The default.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs every append before it returns: no acknowledged
	// record is lost even to power failure, at the cost of one flush per
	// batch.
	PolicyAlways
	// PolicyOff never fsyncs (the OS flushes on its own schedule). Safe
	// against process death, fastest, and what short-lived tests use.
	PolicyOff
)

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyOff:
		return "off"
	default:
		return "interval"
	}
}

// ParsePolicy maps the -wal-fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Options tunes a Log. The zero value is usable: 4 MiB segments,
// PolicyInterval with a 100 ms flush window.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size. Zero means 4 MiB.
	SegmentBytes int64
	// Policy is the fsync policy; see the Policy constants.
	Policy Policy
	// Interval is the PolicyInterval flush window. Zero means 100 ms.
	Interval time.Duration
	// Crash, when set, arms deterministic crash injection: the plan
	// picks one append (by seeded index) and tears its frame mid-write,
	// after which the log refuses further appends — exactly the on-disk
	// state a process killed inside write(2) leaves behind. Tests use it
	// to prove torn-tail recovery without subprocesses.
	Crash *CrashPlan
	// NoMmap forces the plain write(2) append path. By default the
	// active segment is pre-sized and memory-mapped, making an append a
	// memcpy instead of a syscall — a large win where syscalls are
	// expensive (microVMs); durability is unchanged, because dirty
	// mapped pages live in the page cache and survive process death
	// exactly like written ones, and fsync(2) flushes both. The plain
	// path remains for platforms or filesystems where mmap fails (the
	// log also falls back automatically when mapping errors).
	NoMmap bool
}

const (
	headerSize    = 16
	frameOverhead = 8
	// frameEnd is a nonzero byte closing every frame. The pre-sized
	// mapped segment's unwritten tail reads as zeros, so a payload whose
	// own tail is zeros could otherwise make a torn write byte-identical
	// to a completed one; the sentinel guarantees a complete frame always
	// differs from any torn prefix of it.
	frameEnd           = 1
	frameSentinel byte = 0xA5
	// scanBuffer is the read buffer scanSegment reads a segment through:
	// one read(2) covers many small records instead of three per record.
	scanBuffer = 64 << 10
	// maxRecord bounds a single payload; replay rejects larger claimed
	// lengths as corruption rather than allocating them.
	maxRecord = 16 << 20
)

var magic = [8]byte{'W', 'L', 'W', 'A', 'L', '0', '0', '1'}

var (
	// ErrFailed is wrapped by every append after the log's write path
	// has failed once; the failure is sticky so a half-written tail is
	// never appended past.
	ErrFailed = errors.New("wal: log failed")
	// ErrCorrupt reports corruption replay cannot attribute to a torn
	// tail: a bad record in the middle of the log.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrCrashed is returned by the append a CrashPlan tears.
	ErrCrashed = errors.New("wal: crash point fired")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only write-ahead log over one directory. Append,
// Sync, and Close are safe for concurrent use; Replay must run before
// the first Append (the recovery window, when nothing else writes).
type Log struct {
	dir  string
	opts Options

	// mu guards everything below.
	mu       sync.Mutex
	f        *os.File
	mm       []byte // mapped active segment; nil in plain-write mode
	segBase  LSN    // first LSN of the active segment
	segSize  int64  // bytes written to the active segment
	next     LSN    // LSN the next append receives
	dirty    bool   // unsynced bytes outstanding
	lastSync time.Time
	failed   error
	appends  int   // append ops, for the crash plan
	segments int   // segment files on disk
	tornOpen int64 // torn-tail bytes truncated by Open

	// bgFlush tracks in-flight background fsyncs — retirement of
	// rotated segments and PolicyInterval ticks; Sync and Close wait on
	// it. A failure lands in asyncErr (not l.failed directly — the
	// background goroutines must not need mu, which Sync/Close hold
	// while waiting) and is folded into l.failed at the next locked
	// operation. flushInFlight gates interval ticks so a slow disk
	// cannot pile up concurrent fsyncs.
	bgFlush       sync.WaitGroup
	flushInFlight atomic.Bool
	asyncErr      atomic.Pointer[error]

	// metrics, nil (no-op) until EnableObs.
	mAppends, mBytes, mFsyncs, mRotations *obs.Counter
	mReplays, mReplayed, mTornBytes       *obs.Counter
	mFsyncDur                             *obs.Histogram
}

func segName(base LSN) string { return fmt.Sprintf("wal-%016x.seg", uint64(base)) }

// parseSegName extracts a segment's base LSN; ok is false for
// non-segment files.
func parseSegName(name string) (LSN, bool) {
	var v uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.seg", &v); n != 1 || err != nil {
		return 0, false
	}
	// Sscanf tolerates trailing input; require an exact name so editor
	// backups or sweep leftovers are never treated as segments.
	if name != segName(LSN(v)) {
		return 0, false
	}
	return LSN(v), true
}

// listSegments returns the segment base LSNs in dir, ascending.
func listSegments(dir string) ([]LSN, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []LSN
	for _, e := range ents {
		if base, ok := parseSegName(e.Name()); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// Open opens (or creates) the log in dir, repairing the active
// segment's torn tail if the previous process died mid-append: the
// last segment is scanned record by record and truncated at the first
// frame that is short or fails its CRC. Earlier segments are validated
// lazily, by Replay.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	bases, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// A crash during rotation can leave a trailing segment too short to
	// even hold its header; drop such husks and resume on the previous
	// segment.
	for len(bases) > 0 {
		last := bases[len(bases)-1]
		fi, err := os.Stat(filepath.Join(dir, segName(last)))
		if err != nil {
			return nil, err
		}
		if fi.Size() >= headerSize {
			break
		}
		if err := os.Remove(filepath.Join(dir, segName(last))); err != nil {
			return nil, err
		}
		bases = bases[:len(bases)-1]
	}
	if len(bases) == 0 {
		if err := l.createSegment(1, 0); err != nil {
			return nil, err
		}
		l.next = 1
		l.segments = 1
		return l, nil
	}
	last := bases[len(bases)-1]
	path := filepath.Join(dir, segName(last))
	count, validSize, fileSize, clean, err := scanSegment(path, nil)
	if err != nil {
		return nil, err
	}
	if !clean {
		l.tornOpen = fileSize - validSize
	}
	if err := os.Truncate(path, validSize); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	l.segBase = last
	l.segSize = validSize
	l.next = last + LSN(count)
	l.segments = len(bases)
	l.mapActive(0)
	return l, nil
}

// mapActive pre-sizes the active segment and memory-maps it; an
// append then costs a memcpy instead of a write(2) syscall. Plain-
// write mode (Options.NoMmap, or any pre-size/map failure) leaves
// l.mm nil and appends go through the file instead. need is the room
// a pending oversized batch requires beyond SegmentBytes.
func (l *Log) mapActive(need int64) {
	l.mm = nil
	if l.opts.NoMmap {
		return
	}
	size := l.opts.SegmentBytes
	if l.segSize+need > size {
		size = l.segSize + need
	}
	// Prefer physically zeroed blocks over a sparse ftruncate: see
	// zerofill for what that buys the write faults.
	if err := zerofill(l.f, size); err != nil {
		if err := l.f.Truncate(size); err != nil {
			return
		}
	} else if l.opts.Policy != PolicyOff {
		// Commit the fresh segment's size and extents to the journal in
		// the background, so data-only interval flushes (flushRange)
		// have durable metadata under them. Until this lands, jbd2's
		// periodic commit is the backstop.
		if dup, err := dupFile(l.f); err == nil {
			l.bgFlush.Add(1)
			go func() {
				defer l.bgFlush.Done()
				dup.Sync()
				dup.Close()
			}()
		}
	}
	mm, err := mmapFile(l.f, size)
	if err != nil {
		// Undo the pre-size so the write(2) path appends at the tail.
		l.f.Truncate(l.segSize)
		return
	}
	l.mm = mm
	// Everything between the valid tail and the end is zero — a zero
	// frame header is the scan terminator, and stale torn bytes must not
	// resurrect as records. No explicit clear is needed: the file is
	// always trimmed to its valid length before this Truncate grows it
	// (Open repairs to validSize, createSegment starts empty, rotate and
	// Close trim to segSize), and ftruncate extensions read as zeros.
	// Clearing here would dirty every page of the segment up front,
	// forcing a full segment of zero writeback per rotation.
}

func (l *Log) unmapActive() {
	if l.mm != nil {
		munmapFile(l.mm)
		l.mm = nil
	}
}

// writeActive appends buf to the active segment at l.segSize.
func (l *Log) writeActive(buf []byte) error {
	if l.mm != nil {
		copy(l.mm[l.segSize:], buf)
		return nil
	}
	_, err := l.f.Write(buf)
	return err
}

func (l *Log) createSegment(base LSN, need int64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(base)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(base))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segBase = base
	l.segSize = headerSize
	l.dirty = true
	l.mapActive(need)
	return nil
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// TornAtOpen reports how many torn-tail bytes Open truncated from the
// final segment when repairing after a crash (0 for a clean shutdown).
func (l *Log) TornAtOpen() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornOpen
}

// Segments returns the number of segment files on disk.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments
}

// Append appends one record and returns its LSN. The record has
// reached the kernel (write(2) completed) when Append returns; whether
// it has reached stable storage depends on the fsync policy.
func (l *Log) Append(payload []byte) (LSN, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch appends records contiguously with one write syscall and
// returns the LSN of the first; record i gets first+LSN(i). On error
// none, some prefix, or a torn fragment of the batch may be on disk —
// replay keeps only whole CRC-valid records, and the caller must treat
// the whole batch as unacknowledged (the log is failed either way).
func (l *Log) AppendBatch(payloads [][]byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkFailed(); err != nil {
		return 0, err
	}
	need := 0
	for _, p := range payloads {
		if len(p) == 0 {
			// A zero frame header is the pre-sized segment's scan
			// terminator, so an empty record is unrepresentable.
			return 0, fmt.Errorf("wal: empty record")
		}
		if len(p) > maxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds max %d", len(p), maxRecord)
		}
		need += frameOverhead + len(p) + frameEnd
	}
	// Rotate when the segment is full — or, in mapped mode, when this
	// batch would run past the mapping (an oversized batch gets its own
	// larger segment, sized by need). A segment that holds no record yet
	// is never rotated away: its successor would have the same base LSN
	// and so the same file name. It is grown in place instead.
	if l.segSize >= l.opts.SegmentBytes ||
		(l.mm != nil && l.segSize+int64(need) > int64(len(l.mm))) {
		if l.segSize > headerSize {
			if err := l.rotate(int64(need)); err != nil {
				l.failed = err
				return 0, err
			}
		} else if l.mm != nil {
			l.unmapActive()
			l.mapActive(int64(need))
		}
	}
	if l.mm != nil && l.opts.Crash == nil {
		// Fast path: frame each record straight into the mapping. The
		// batch-sized scratch buffer and its extra copy are the largest
		// remaining append cost once the write(2) is gone.
		off := l.segSize
		for _, p := range payloads {
			binary.BigEndian.PutUint32(l.mm[off:], uint32(len(p)))
			binary.BigEndian.PutUint32(l.mm[off+4:], crc32.Checksum(p, crcTable))
			off += frameOverhead
			off += int64(copy(l.mm[off:], p))
			l.mm[off] = frameSentinel
			off++
		}
	} else {
		buf := make([]byte, 0, need)
		bounds := make([]int, 0, len(payloads)+1)
		for _, p := range payloads {
			bounds = append(bounds, len(buf))
			var hdr [frameOverhead]byte
			binary.BigEndian.PutUint32(hdr[0:], uint32(len(p)))
			binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(p, crcTable))
			buf = append(buf, hdr[:]...)
			buf = append(buf, p...)
			buf = append(buf, frameSentinel)
		}
		bounds = append(bounds, len(buf))
		if l.opts.Crash != nil {
			if tear, at := l.opts.Crash.tearAt(l.appends, bounds); tear {
				// Simulate dying inside the append: a prefix of the batch
				// frame reaches the segment, then the "process" is gone. The
				// log is failed from here on, like the dead process's fd.
				l.writeActive(buf[:at])
				l.f.Sync()
				l.failed = ErrCrashed
				return 0, ErrCrashed
			}
		}
		if err := l.writeActive(buf); err != nil {
			l.failed = err
			return 0, err
		}
	}
	l.appends += len(payloads)
	first := l.next
	l.next += LSN(len(payloads))
	l.segSize += int64(need)
	l.dirty = true
	l.mAppends.Add(int64(len(payloads)))
	l.mBytes.Add(int64(need))
	if err := l.maybeSync(); err != nil {
		l.failed = err
		return 0, err
	}
	return first, nil
}

// rotate syncs, trims, and closes the active segment and starts the
// next one. Trimming the pre-sized mapping back to its written length
// keeps the invariant that only the final segment may carry a zero or
// torn tail.
func (l *Log) rotate(need int64) error {
	l.unmapActive()
	if err := l.f.Truncate(l.segSize); err != nil {
		return err
	}
	// Retire the old segment off the hot path: flushing a whole segment
	// of dirty pages can take tens of milliseconds, and the append that
	// happened to trigger rotation must not absorb it. PolicyOff makes
	// no promise across power loss, so it skips the flush; PolicyAlways
	// synced every batch, leaving nothing dirty. Only PolicyInterval
	// with unsynced bytes pays, and it pays in the background while the
	// new segment fills.
	old, dirty := l.f, l.dirty
	if l.opts.Policy == PolicyOff || !dirty {
		if err := old.Close(); err != nil {
			return err
		}
	} else {
		l.bgFlush.Add(1)
		go func() {
			defer l.bgFlush.Done()
			sp := obs.StartSpan(l.mFsyncDur)
			err := old.Sync()
			sp.End()
			if err == nil {
				l.mFsyncs.Inc()
				err = old.Close()
			} else {
				old.Close()
			}
			if err != nil {
				l.asyncErr.CompareAndSwap(nil, &err)
			}
		}()
	}
	l.dirty = false
	if err := l.createSegment(l.next, need); err != nil {
		return err
	}
	l.segments++
	l.mRotations.Inc()
	return nil
}

// checkFailed folds any background retirement failure into the sticky
// failure and reports it. Caller holds mu.
func (l *Log) checkFailed() error {
	if l.failed == nil {
		if p := l.asyncErr.Load(); p != nil {
			l.failed = *p
		}
	}
	if l.failed != nil {
		return fmt.Errorf("%w: %v", ErrFailed, l.failed)
	}
	return nil
}

func (l *Log) maybeSync() error {
	switch l.opts.Policy {
	case PolicyAlways:
		return l.syncLocked()
	case PolicyInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			return l.intervalFlush()
		}
	}
	return nil
}

// intervalFlush starts a background fsync of the active segment for
// the interval policy. fsync waits out the writeback of everything
// dirtied during the interval — tens of milliseconds after a busy one
// — and holding mu for that would stall every append; the policy only
// promises a bounded loss window, which launch-time bookkeeping keeps.
// The goroutine syncs a dup'd descriptor so a rotation closing the
// original cannot yank it. Caller holds mu.
func (l *Log) intervalFlush() error {
	if !l.dirty {
		return nil
	}
	// Flush only whole pages. The partial tail page is the one the
	// appender dirties next, and a write fault on a page under
	// writeback waits for the writeback to clear — flushing it here
	// would make the very next append pay for this flush. It is never
	// lost, only deferred: dirty stays set while a partial page is
	// outstanding, so Sync and Close still flush it (and passing 0 to
	// sync_file_range would mean "to end of file", hitting the dirty
	// pre-zeroed tail).
	written := l.segSize &^ 0xFFF
	if written == 0 {
		return nil
	}
	if !l.flushInFlight.CompareAndSwap(false, true) {
		return nil // previous flush still draining; it covers our pages
	}
	dup, err := dupFile(l.f)
	if err != nil {
		// No dup on this platform: flush synchronously.
		l.flushInFlight.Store(false)
		return l.syncLocked()
	}
	l.dirty = written != l.segSize
	l.lastSync = time.Now()
	l.bgFlush.Add(1)
	go func() {
		defer l.bgFlush.Done()
		defer l.flushInFlight.Store(false)
		sp := obs.StartSpan(l.mFsyncDur)
		err := flushRange(dup, written)
		sp.End()
		dup.Close()
		if err != nil {
			l.asyncErr.CompareAndSwap(nil, &err)
			return
		}
		l.mFsyncs.Inc()
	}()
	return nil
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	sp := obs.StartSpan(l.mFsyncDur)
	err := l.f.Sync()
	sp.End()
	if err != nil {
		return err
	}
	l.mFsyncs.Inc()
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Sync flushes outstanding appends to stable storage regardless of
// policy, including retired segments still being flushed in the
// background.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bgFlush.Wait()
	if err := l.checkFailed(); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		l.failed = err
		return err
	}
	return nil
}

// Close waits out background retirements, then syncs and closes the
// active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.bgFlush.Wait()
	l.checkFailed()
	serr := error(nil)
	if l.failed == nil {
		serr = l.syncLocked()
		l.unmapActive()
		// Trim the pre-sized tail so a clean shutdown leaves an
		// exact-length segment; a failed log is left as the crash left
		// it (recovery repairs it, like a dead process's file).
		if terr := l.f.Truncate(l.segSize); serr == nil && terr != nil {
			serr = terr
		}
	} else {
		l.unmapActive()
	}
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Records is how many records fn received.
	Records int
	// Skipped counts records below the from LSN (already covered by the
	// checkpoint the caller restored).
	Skipped int
	// TornBytes is the length of the torn tail discarded from the final
	// segment, zero when the log ended cleanly.
	TornBytes int64
}

// Replay walks every record in LSN order, calling fn for each record
// with LSN >= from; fn owns the payload it is handed and may keep it.
// A short or CRC-failing frame at the tail of the final segment is a
// torn tail: replay stops there and reports the discarded byte count
// in the stats. The same damage in any earlier
// segment is real corruption and returns ErrCorrupt. Replay reads the
// segment files independently of the append path; call it during
// recovery, before the first Append.
func (l *Log) Replay(from LSN, fn func(LSN, []byte) error) (ReplayStats, error) {
	var stats ReplayStats
	bases, err := listSegments(l.dir)
	if err != nil {
		return stats, err
	}
	l.mReplays.Inc()
	for i, base := range bases {
		last := i == len(bases)-1
		path := filepath.Join(l.dir, segName(base))
		lsn := base
		count, validSize, fileSize, clean, err := scanSegment(path, func(payload []byte) error {
			if lsn < from {
				stats.Skipped++
			} else {
				if err := fn(lsn, payload); err != nil {
					return err
				}
				stats.Records++
				l.mReplayed.Inc()
			}
			lsn++
			return nil
		})
		if err != nil {
			return stats, err
		}
		if !clean {
			if !last {
				return stats, fmt.Errorf("%w: segment %s has %d trailing bytes mid-log",
					ErrCorrupt, segName(base), fileSize-validSize)
			}
			stats.TornBytes = fileSize - validSize
			l.mTornBytes.Add(stats.TornBytes)
		}
		if !last && bases[i+1] != base+LSN(count) {
			// The next segment's base pins how many records this one
			// must hold; fewer means records were lost mid-log.
			return stats, fmt.Errorf("%w: segment %s holds %d records but next base is %d",
				ErrCorrupt, segName(base), count, bases[i+1])
		}
	}
	return stats, nil
}

// scanSegment reads one segment, calling fn (when non-nil) per valid
// record, and returns the record count, the byte offset after the last
// valid record, the file size, and whether the segment ended cleanly —
// at exact EOF, or at a zero frame header (the terminator a pre-sized
// mapped segment's untouched tail reads as). A header that fails
// validation is an error; a bad record merely ends the scan early with
// clean=false (a torn or corrupt tail). Each payload handed to fn is
// freshly allocated, so fn may keep it; with fn nil one buffer serves
// every record.
func scanSegment(path string, fn func([]byte) error) (count int, validSize, fileSize int64, clean bool, err error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, false, err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return 0, 0, 0, false, err
	}
	fileSize = fi.Size()
	f := bufio.NewReaderSize(file, scanBuffer)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, fileSize, false, fmt.Errorf("wal: %s: short header: %w", filepath.Base(path), err)
	}
	if [8]byte(hdr[:8]) != magic {
		return 0, 0, fileSize, false, fmt.Errorf("wal: %s: bad magic", filepath.Base(path))
	}
	if got, want := parseBase(path), LSN(binary.BigEndian.Uint64(hdr[8:])); got != want {
		return 0, 0, fileSize, false, fmt.Errorf("wal: %s: header base %d does not match name", filepath.Base(path), want)
	}
	validSize = headerSize
	var frame [frameOverhead]byte
	var scratch []byte
	for {
		if _, rerr := io.ReadFull(f, frame[:]); rerr != nil {
			return count, validSize, fileSize, rerr == io.EOF, nil // exact EOF is clean; a partial header is a tear
		}
		n := binary.BigEndian.Uint32(frame[0:])
		crc := binary.BigEndian.Uint32(frame[4:])
		if n == 0 && crc == 0 {
			return count, validSize, fileSize, true, nil // zero terminator: clean end of a pre-sized segment
		}
		if n > maxRecord || int64(n)+frameEnd > fileSize-validSize-frameOverhead {
			// A claim the segment cannot hold is a tear, caught before
			// it is allocated: a garbage length must not cost 16 MiB.
			return count, validSize, fileSize, false, nil
		}
		var payload []byte
		if fn != nil {
			payload = make([]byte, n)
		} else {
			if uint32(cap(scratch)) < n {
				scratch = make([]byte, n)
			}
			payload = scratch[:n]
		}
		if _, rerr := io.ReadFull(f, payload); rerr != nil {
			return count, validSize, fileSize, false, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return count, validSize, fileSize, false, nil // bit rot or tear across the CRC
		}
		if end, rerr := f.ReadByte(); rerr != nil || end != frameSentinel {
			return count, validSize, fileSize, false, nil // frame never closed: torn write
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return count, validSize, fileSize, false, err
			}
		}
		count++
		validSize += frameOverhead + int64(n) + frameEnd
	}
}

func parseBase(path string) LSN {
	base, _ := parseSegName(filepath.Base(path))
	return base
}

// TruncateBelow removes segments every record of which is below lsn —
// they are covered by a checkpoint and replay would skip them anyway.
// The active segment is never removed. Returns how many segment files
// were deleted.
func (l *Log) TruncateBelow(lsn LSN) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bases, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, base := range bases {
		if i == len(bases)-1 {
			break // active segment
		}
		// Records of segment i span [base, bases[i+1]); all below lsn
		// exactly when the next segment starts at or below lsn.
		if bases[i+1] > lsn {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(base))); err != nil {
			return removed, err
		}
		removed++
		l.segments--
	}
	return removed, nil
}

// EnableObs registers the log's metrics on reg: wal.appends,
// wal.append_bytes, wal.fsyncs, wal.fsync_us, wal.rotations,
// wal.replays, wal.replayed_records, wal.torn_bytes, and the
// wal.segments / wal.next_lsn gauges. Observe-only; call before
// serving.
func (l *Log) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.mAppends = reg.Counter("wal.appends")
	l.mBytes = reg.Counter("wal.append_bytes")
	l.mFsyncs = reg.Counter("wal.fsyncs")
	l.mFsyncDur = reg.Histogram("wal.fsync_us", obs.DurationBuckets)
	l.mRotations = reg.Counter("wal.rotations")
	l.mReplays = reg.Counter("wal.replays")
	l.mReplayed = reg.Counter("wal.replayed_records")
	l.mTornBytes = reg.Counter("wal.torn_bytes")
	reg.RegisterFunc("wal.segments", func() int64 { return int64(l.Segments()) })
	reg.RegisterFunc("wal.next_lsn", func() int64 { return int64(l.NextLSN()) })
}
