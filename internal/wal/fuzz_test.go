package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// validSegment builds a well-formed one-segment log as seed material.
func validSegment(base LSN, payloads ...[]byte) []byte {
	var b bytes.Buffer
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(base))
	b.Write(hdr[:])
	for _, p := range payloads {
		var fh [frameOverhead]byte
		binary.BigEndian.PutUint32(fh[:4], uint32(len(p)))
		binary.BigEndian.PutUint32(fh[4:], crc32.Checksum(p, crcTable))
		b.Write(fh[:])
		b.Write(p)
		b.WriteByte(frameSentinel)
	}
	return b.Bytes()
}

// FuzzWALReplay throws arbitrary bytes at the segment scanner by way of
// Open + Replay. Whatever the input, the invariants are: no panic, and
// a second Open over the repaired directory succeeds with a clean
// replay (repair must converge — torn tails are truncated once, not
// rediscovered forever).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(validSegment(1))
	f.Add(validSegment(1, []byte("hello"), []byte("world")))
	f.Add(validSegment(7, bytes.Repeat([]byte{0xaa}, 300)))
	// Torn tail: a valid record then half of another.
	whole := validSegment(1, []byte("intact"), []byte("about-to-be-torn"))
	f.Add(whole[:len(whole)-5])
	// Corrupt CRC on the first record.
	bad := validSegment(1, []byte("payload"))
	bad[headerSize+5] ^= 0x01
	f.Add(bad)
	// Oversized declared length.
	huge := validSegment(1)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(huge)
	// A length claim just under maxRecord on a short tail: a tear that
	// must be classified without allocating the claim.
	claim := validSegment(1, []byte("intact"))
	claim = binary.BigEndian.AppendUint32(claim, maxRecord-1)
	claim = append(claim, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
	f.Add(claim)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Policy: PolicyOff})
		if err != nil {
			return // rejected input is fine; panics are not
		}
		n := 0
		_, _ = l.Replay(0, func(lsn LSN, p []byte) error {
			n++
			return nil
		})
		next := l.NextLSN()
		l.Close()

		// Open repaired the directory in place: a reopen must succeed,
		// see the same LSN horizon, and replay without error.
		l2, err := Open(dir, Options{Policy: PolicyOff})
		if err != nil {
			t.Fatalf("reopen after repair failed: %v", err)
		}
		defer l2.Close()
		if l2.NextLSN() != next {
			t.Fatalf("reopen NextLSN %d != first-open %d", l2.NextLSN(), next)
		}
		stats, err := l2.Replay(0, func(LSN, []byte) error { return nil })
		if err != nil {
			t.Fatalf("replay after repair: %v (stats %+v)", err, stats)
		}
	})
}
