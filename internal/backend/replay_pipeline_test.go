package backend

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// TestReplayErrorStopsPipeline: a log with a segment missing mid-chain
// fails recovery with wal.ErrCorrupt after records of the segment
// before the gap are already in the pipeline; no worker or apply
// goroutine may outlive the failed OpenDurable.
func TestReplayErrorStopsPipeline(t *testing.T) {
	// Small segments, so the log spans several of them.
	opts := DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff, SegmentBytes: 4 << 10}}
	dir := t.TempDir()
	d, _ := mustOpenDurable(t, dir, opts)
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
	if _, _, err := OpenDurable(dir, opts); !errors.Is(err, wal.ErrCorrupt) {
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
