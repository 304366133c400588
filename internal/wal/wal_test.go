package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, i%32))))
	}
	return out
}

func replayAll(t *testing.T, l *Log, from LSN) (map[LSN]string, ReplayStats) {
	t.Helper()
	got := make(map[LSN]string)
	stats, err := l.Replay(from, func(lsn LSN, p []byte) error {
		got[lsn] = string(p)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(100)
	for i, p := range recs {
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != LSN(i+1) {
			t.Fatalf("append %d got LSN %d, want %d", i, lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextLSN() != LSN(len(recs)+1) {
		t.Fatalf("reopened NextLSN = %d, want %d", l2.NextLSN(), len(recs)+1)
	}
	got, stats := replayAll(t, l2, 0)
	if stats.Records != len(recs) || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v, want %d records, clean tail", stats, len(recs))
	}
	for i, p := range recs {
		if got[LSN(i+1)] != string(p) {
			t.Fatalf("record %d mismatch", i+1)
		}
	}

	// Replay from the middle skips the low records.
	got, stats = replayAll(t, l2, 51)
	if stats.Records != 50 || stats.Skipped != 50 {
		t.Fatalf("partial replay stats = %+v, want 50/50", stats)
	}
	if _, ok := got[50]; ok {
		t.Fatal("replay from 51 delivered LSN 50")
	}
}

func TestRotationAndTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := payloads(64)
	for _, p := range recs {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("tiny segments should have rotated, got %d segment(s)", l.Segments())
	}
	got, _ := replayAll(t, l, 0)
	if len(got) != len(recs) {
		t.Fatalf("replay across segments got %d records, want %d", len(got), len(recs))
	}

	// Truncation below LSN 33 must keep every record >= 33 and remove at
	// least one whole segment.
	removed, err := l.TruncateBelow(33)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected at least one segment removed")
	}
	got, _ = replayAll(t, l, 33)
	for lsn := LSN(33); lsn <= LSN(len(recs)); lsn++ {
		if got[lsn] != string(recs[lsn-1]) {
			t.Fatalf("record %d lost by truncation", lsn)
		}
	}
	l.Close()
}

func TestOpenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(10) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail by hand: chop 3 bytes off the last record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	fi, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer l2.Close()
	if l2.NextLSN() != 10 {
		t.Fatalf("NextLSN after torn-tail repair = %d, want 10 (record 10 torn away)", l2.NextLSN())
	}
	got, stats := replayAll(t, l2, 0)
	if len(got) != 9 || stats.Records != 9 {
		t.Fatalf("replay after repair got %d records, want 9", len(got))
	}
	// The next append reuses LSN 10 and the log is whole again.
	lsn, err := l2.Append([]byte("replacement"))
	if err != nil || lsn != 10 {
		t.Fatalf("append after repair: lsn=%d err=%v", lsn, err)
	}
}

// TestTornLengthClaimAllocatesNothing: a torn tail whose frame header
// claims 15 MiB in a segment of a few KiB is a tear, found without
// allocating the claim — by the scan a Replay callback sees and by
// Open's repair scan alike.
func TestTornLengthClaimAllocatesNothing(t *testing.T) {
	recs := make([][]byte, 20)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte(i + 1)}, 200)
	}
	seg := validSegment(1, recs...)
	valid := int64(len(seg))
	seg = binary.BigEndian.AppendUint32(seg, 15<<20)
	seg = append(seg, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5)
	tail := int64(len(seg)) - valid
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var count int
	var validSize int64
	var clean bool
	var err error
	got := allocated(func() {
		count, validSize, _, clean, err = scanSegment(path, func([]byte) error { return nil })
	})
	if err != nil || count != len(recs) || validSize != valid || clean {
		t.Fatalf("scan = %d records, valid %d, clean %v, err %v; want %d, %d, torn",
			count, validSize, clean, err, len(recs), valid)
	}
	if got >= 1<<20 {
		t.Fatalf("scanning the torn claim allocated %d bytes", got)
	}

	var l *Log
	var stats ReplayStats
	got = allocated(func() {
		if l, err = Open(dir, Options{Policy: PolicyOff, NoMmap: true}); err != nil {
			return
		}
		stats, err = l.Replay(0, func(LSN, []byte) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.TornAtOpen() != tail || stats.Records != len(recs) {
		t.Fatalf("torn at open %d, replayed %d; want %d, %d", l.TornAtOpen(), stats.Records, tail, len(recs))
	}
	if got >= 1<<20 {
		t.Fatalf("open and replay over the torn claim allocated %d bytes", got)
	}
}

func TestOpenDropsHeaderlessTrailingSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(5) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// A crash mid-rotation leaves a next segment too short for its
	// header.
	husk := filepath.Join(dir, segName(6))
	if err := os.WriteFile(husk, []byte{'W', 'L'}, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatalf("open over rotation husk: %v", err)
	}
	defer l2.Close()
	if l2.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", l2.NextLSN())
	}
	if _, err := os.Stat(husk); !os.IsNotExist(err) {
		t.Fatal("husk segment not removed")
	}
}

func TestCorruptionMidLogIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyOff, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(40) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatal("need multiple segments")
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	// Flip a payload byte in the FIRST segment (not the tail).
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+frameOverhead+2] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Replay(0, func(LSN, []byte) error { return nil }); err == nil {
		t.Fatal("mid-log corruption replayed without error")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []Policy{PolicyAlways, PolicyInterval, PolicyOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads(20) {
				if _, err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("ParsePolicy accepted nonsense")
	}
}

// TestCrashPlanSeeds proves the deterministic crash injection: for
// every seed, the log tears exactly at the planned append, recovery
// keeps precisely the records below the victim index, and the victim
// itself is gone — a genuinely torn record, repaired at open.
func TestCrashPlanSeeds(t *testing.T) {
	const horizon = 50
	for seed := uint64(1); seed <= 25; seed++ {
		plan := NewCrashPlan(seed, horizon)
		dir := t.TempDir()
		l, err := Open(dir, Options{Policy: PolicyOff, SegmentBytes: 512, Crash: plan})
		if err != nil {
			t.Fatal(err)
		}
		recs := payloads(horizon)
		var crashedAt = -1
		for i, p := range recs {
			if _, err := l.Append(p); err != nil {
				if err != ErrCrashed {
					t.Fatalf("seed %d: append %d: %v", seed, i, err)
				}
				crashedAt = i
				break
			}
		}
		if crashedAt != plan.Victim() {
			t.Fatalf("seed %d: crashed at append %d, plan said %d", seed, crashedAt, plan.Victim())
		}
		if fired, at := plan.Fired(); !fired || at != crashedAt {
			t.Fatalf("seed %d: plan state fired=%t at=%d", seed, fired, at)
		}
		// The dead log refuses further use, like a killed process.
		if _, err := l.Append([]byte("x")); err == nil {
			t.Fatalf("seed %d: append after crash succeeded", seed)
		}

		l2, err := Open(dir, Options{Policy: PolicyOff})
		if err != nil {
			t.Fatalf("seed %d: recovery open: %v", seed, err)
		}
		got, stats := replayAll(t, l2, 0)
		if len(got) != crashedAt {
			t.Fatalf("seed %d: recovered %d records, want %d (stats %+v)", seed, len(got), crashedAt, stats)
		}
		for i := 0; i < crashedAt; i++ {
			if got[LSN(i+1)] != string(recs[i]) {
				t.Fatalf("seed %d: surviving record %d corrupted", seed, i+1)
			}
		}
		l2.Close()
	}
}

// TestCrashPlanMidBatch tears inside a multi-record batch: records
// before the victim in the same write survive whole.
func TestCrashPlanMidBatch(t *testing.T) {
	plan := &CrashPlan{victim: 5, frac: 0.5}
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: PolicyOff, Crash: plan})
	if err != nil {
		t.Fatal(err)
	}
	batch := payloads(8) // victim is record index 5, mid-batch
	if _, err := l.AppendBatch(batch); err != ErrCrashed {
		t.Fatalf("batch append err = %v, want ErrCrashed", err)
	}
	l2, err := Open(dir, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ := replayAll(t, l2, 0)
	if len(got) != 5 {
		t.Fatalf("recovered %d records from torn batch, want 5", len(got))
	}
}

// TestOversizedRecordOnEmptyLog: a record larger than SegmentBytes
// appended to a log that holds nothing yet (the first absorb on a fresh
// rebalance destination) used to rotate, and rotation re-created the
// still-empty active segment under O_EXCL: "file exists". The empty
// segment must take the record in place, in both append modes, on a
// fresh log and on a reopened empty one.
func TestOversizedRecordOnEmptyLog(t *testing.T) {
	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i)
	}
	for _, noMmap := range []bool{false, true} {
		for _, reopen := range []bool{false, true} {
			t.Run(fmt.Sprintf("nommap=%t/reopen=%t", noMmap, reopen), func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{Policy: PolicyOff, SegmentBytes: 64 << 10, NoMmap: noMmap}
				l, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				if reopen {
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					if l, err = Open(dir, opts); err != nil {
						t.Fatal(err)
					}
				}
				if lsn, err := l.Append(big); err != nil || lsn != 1 {
					t.Fatalf("oversized first append: lsn=%d err=%v", lsn, err)
				}
				small := payloads(8)
				for _, p := range small {
					if _, err := l.Append(p); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				l2, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				got, stats := replayAll(t, l2, 0)
				if stats.Records != 1+len(small) || stats.TornBytes != 0 {
					t.Fatalf("stats = %+v, want %d clean records", stats, 1+len(small))
				}
				if got[1] != string(big) {
					t.Fatal("oversized record did not round-trip")
				}
				for i, p := range small {
					if got[LSN(i+2)] != string(p) {
						t.Fatalf("record %d mismatch after the oversized one", i+2)
					}
				}
			})
		}
	}
}
