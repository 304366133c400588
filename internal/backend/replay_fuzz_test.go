package backend

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// replayAllocPerByte and replayAllocSlack bound what OpenDurable may
// allocate replaying one WAL record of n bytes: replayAllocPerByte × n
// + replayAllocSlack. The slack covers the boot itself, about 1.05 MiB
// with nothing to replay; the per-byte term covers the records a byte
// can declare and the store state they make. The densest measured
// record, a v1 report of 2-byte empty nested messages, costs 142 B per
// byte; a v2 batch's decode alone may take 256.
const (
	replayAllocPerByte = 1 << 10
	replayAllocSlack   = 2 << 20
)

// FuzzDurableReplay writes each input as the one record of a fresh WAL
// and boots OpenDurable over it. Every record shape the replay
// discriminator routes — a v1 report, a v2 batch, a migration record
// 0x03–0x06 — must apply or count as a bad record: no panic, no error
// from OpenDurable, and at most replayAllocPerByte bytes allocated per
// record byte plus replayAllocSlack.
func FuzzDurableReplay(f *testing.F) {
	reports := durableReports(6)
	f.Add(reports[0].Marshal())
	be := telemetry.NewBatchEncoder(0)
	for _, r := range reports {
		be.Add(r)
	}
	f.Add(be.Finish(0, 0, nil))
	var slice bytes.Buffer
	s := NewStore()
	s.Ingest(randomReport(rand.New(rand.NewSource(5)), 5, 0, 1))
	if err := s.Save(&slice); err != nil {
		f.Fatal(err)
	}
	f.Add(encodeMigrationRecord(recAbsorb, "tok-f", []uint64{5}, slice.Bytes()))
	f.Add(encodeMigrationRecord(recDrop, "tok-f", []uint64{5}, nil))
	f.Add(encodeMigrationRecord(recPart, "", []uint64{5, 6}, nil))
	f.Add(encodeMigrationRecord(recUnpart, "", []uint64{5}, nil))
	f.Add([]byte{recPart, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}) // 2^60 IDs

	f.Fuzz(func(t *testing.T, rec []byte) {
		if len(rec) == 0 {
			return // the WAL holds no empty records
		}
		// The plain write(2) path: pre-sizing and mapping a segment
		// costs milliseconds per input and changes nothing replay sees.
		opts := wal.Options{Policy: wal.PolicyOff, NoMmap: true}
		dir := t.TempDir()
		w, err := wal.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, stats, err := OpenDurable(dir, DurableOptions{WAL: opts})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		defer d.Close()
		if stats.Replayed != 1 {
			t.Fatalf("recovery stats = %+v, want the one record replayed", stats)
		}
		limit := uint64(replayAllocPerByte*len(rec) + replayAllocSlack)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("replaying a %d-byte record allocated %d, bound %d", len(rec), got, limit)
		}
	})
}
