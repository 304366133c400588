package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// mixedWALOpts gives the mixed log small segments, so replay crosses
// several of them.
var mixedWALOpts = DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff, SegmentBytes: 4 << 10}}

// buildMixedWAL writes a durable store directory holding every record
// shape replay meets: a checkpoint with records below and above it, v1
// per-report records, v2 batch records, an absorb/drop/part/unpart
// sequence interleaved with the ingests it acts on, two CRC-valid
// undecodable records, and a torn tail.
func buildMixedWAL(t *testing.T, dir string) {
	t.Helper()
	var slice bytes.Buffer
	if err := netStore([]int{5}, 2, 2).Save(&slice); err != nil {
		t.Fatal(err)
	}
	v1 := durableReports(60)
	d, _ := mustOpenDurable(t, dir, mixedWALOpts)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range v1[:20] {
		must(d.IngestBatch([]*telemetry.Report{r}, nil))
	}
	must(d.Checkpoint())
	must(d.IngestBatch(v1[20:40], nil))
	for b := uint64(1); b <= 4; b++ {
		be := telemetry.NewBatchEncoder(0)
		for ap := 0; ap < 4; ap++ {
			be.Add(netReport(6, ap, b))
		}
		payload := be.Finish(0, 0, nil)
		f, err := telemetry.DecodeBatchFrame(payload)
		must(err)
		must(d.IngestBatchFrame(f.Reports, payload))
	}
	must(d.PartNetworks([]uint64{5}))
	if _, err := d.AbsorbSnapshot("tok-a", []uint64{5}, slice.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Ingests that build on the absorbed slice, then a drop of the
	// network the v2 batches filled: both only come out right when the
	// migration records apply in LSN order with the ingests around them.
	must(d.IngestBatch([]*telemetry.Report{netReport(5, 0, 3), netReport(5, 1, 3)}, nil))
	if _, _, err := d.DropNetworks("tok-b", []uint64{6}); err != nil {
		t.Fatal(err)
	}
	must(d.PartNetworks([]uint64{7, 8}))
	must(d.UnpartNetworks([]uint64{7}))
	if _, err := d.WAL().Append([]byte{telemetry.WireV2, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WAL().Append(binary.AppendUvarint([]byte{recPart, 0}, 1<<60)); err != nil {
		t.Fatal(err)
	}
	for _, r := range v1[40:] {
		must(d.IngestBatch([]*telemetry.Report{r}, nil))
	}
	must(d.Close())

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	must(err)
	must(os.Truncate(last, fi.Size()-3))
}

// serialRecover is the reference replay: the newest checkpoint, then
// every WAL record above it decoded and applied on one goroutine, as
// OpenDurable did before its replay became a pipeline.
func serialRecover(t *testing.T, dir string) (*Store, RecoveryStats) {
	t.Helper()
	s := NewStore()
	var stats RecoveryStats
	lsns, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) > 0 {
		stats.CheckpointLSN = lsns[0]
		stats.CheckpointFile = filepath.Join(dir, checkpointName(lsns[0]))
		if err := s.LoadFile(stats.CheckpointFile); err != nil {
			t.Fatal(err)
		}
	}
	w, err := wal.Open(dir, mixedWALOpts.WAL)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rs, err := w.Replay(stats.CheckpointLSN, func(_ wal.LSN, p []byte) error {
		switch {
		case isMigrationRecord(p):
			m, err := decodeMigrationRecord(p)
			if err != nil {
				stats.BadRecords++
				return nil
			}
			switch m.kind {
			case recAbsorb:
				if _, err := s.Absorb(m.token, m.ids, bytes.NewReader(m.slice), NetworkOfSerial); err != nil {
					stats.BadRecords++
				}
			case recDrop:
				s.Drop(m.token, m.ids, NetworkOfSerial)
			case recPart:
				s.Part(m.ids)
			case recUnpart:
				s.Unpart(m.ids)
			}
		case p[0] == telemetry.WireV2:
			f, err := telemetry.DecodeBatchFrame(p)
			if err != nil {
				stats.BadRecords++
				return nil
			}
			for _, r := range f.Reports {
				s.Ingest(r)
			}
		default:
			r, err := telemetry.UnmarshalReport(p)
			if err != nil {
				stats.BadRecords++
				return nil
			}
			s.Ingest(r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats.Replayed = rs.Records
	stats.Skipped = rs.Skipped
	stats.TornBytes = rs.TornBytes + w.TornAtOpen()
	return s, stats
}

// copyDir replaces dst with a copy of the regular files in src.
// Recovery repairs a torn tail in place, so every recovery under test
// starts from the same pristine copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoveredState is what a recovery must reproduce exactly.
type recoveredState struct {
	digest         string
	ingests, dupes int
	parted         []uint64
	stats          RecoveryStats
}

// TestReplayPipelineMatchesSerial recovers one mixed WAL through
// OpenDurable's pipeline at GOMAXPROCS 1, 2 and 8 and requires the
// digest, Stats, PartedIDs and every RecoveryStats field but the wall
// time to equal the serial reference replay's.
func TestReplayPipelineMatchesSerial(t *testing.T) {
	pristine, work := t.TempDir(), filepath.Join(t.TempDir(), "wal")
	buildMixedWAL(t, pristine)

	copyDir(t, pristine, work)
	ref, refStats := serialRecover(t, work)
	want := recoveredState{digest: ref.Digest(), parted: ref.PartedIDs(), stats: refStats}
	want.ingests, want.dupes = ref.Stats()
	if refStats.Skipped == 0 || refStats.BadRecords != 2 || refStats.TornBytes == 0 || !reflect.DeepEqual(want.parted, []uint64{8}) {
		t.Fatalf("reference recovery does not exercise every record shape: %+v parted %v", refStats, want.parted)
	}

	for _, procs := range []int{1, 2, 8} {
		copyDir(t, pristine, work)
		prev := runtime.GOMAXPROCS(procs)
		d, stats, err := OpenDurable(work, mixedWALOpts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if stats.Elapsed <= 0 {
			t.Fatalf("GOMAXPROCS=%d: recovery Elapsed = %v", procs, stats.Elapsed)
		}
		stats.Elapsed = 0
		got := recoveredState{digest: d.Digest(), parted: d.PartedIDs(), stats: stats}
		got.ingests, got.dupes = d.Stats()
		d.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: pipeline recovery\n got %+v\nwant %+v", procs, got, want)
		}
	}
}

// TestReplayErrorStopsPipeline: a log with a segment missing mid-chain
// fails recovery with wal.ErrCorrupt after records of the segment
// before the gap are already in the pipeline; no worker or apply
// goroutine may outlive the failed OpenDurable.
func TestReplayErrorStopsPipeline(t *testing.T) {
	dir := t.TempDir()
	d, _ := mustOpenDurable(t, dir, mixedWALOpts)
	for _, r := range durableReports(200) {
		if err := d.IngestBatch([]*telemetry.Report{r}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	if _, _, err := OpenDurable(dir, mixedWALOpts); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("OpenDurable over a next-base gap = %v, want wal.ErrCorrupt", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed recovery, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
