package backend

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// durableReports builds n deterministic reports across a few serials,
// seqnos stamped the way Agent.Enqueue does (1-based, per device).
func durableReports(n int) []*telemetry.Report {
	out := make([]*telemetry.Report, 0, n)
	seq := map[string]uint64{}
	for i := 0; i < n; i++ {
		serial := fmt.Sprintf("AP-%d", i%3)
		seq[serial]++
		mac := dot11.MAC{0x02, 0x00, 0x00, 0x00, byte(i >> 8), byte(i)}
		out = append(out, &telemetry.Report{
			Serial: serial,
			SeqNo:  seq[serial],
			Clients: []telemetry.ClientRecord{{
				MAC:  mac,
				Band: dot11.Band5,
				Apps: []telemetry.AppUsageRecord{{App: "Netflix", UpBytes: uint64(i), DownBytes: uint64(i) * 10, Flows: 1}},
			}},
		})
	}
	return out
}

// volatileDigest ingests reports into a plain in-memory store and
// returns its canonical digest — the ground truth a recovered durable
// store must match exactly.
func volatileDigest(reports []*telemetry.Report) string {
	s := NewStore()
	for _, r := range reports {
		s.Ingest(r)
	}
	return s.Digest()
}

func mustOpenDurable(t *testing.T, dir string, o DurableOptions) (*DurableStore, RecoveryStats) {
	t.Helper()
	d, stats, err := OpenDurable(dir, o)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d, stats
}

// TestDurableTornTailOnly covers a WAL whose only content beyond the
// header is a torn record: recovery must come up empty-but-healthy.
func TestDurableTornTailOnly(t *testing.T) {
	dir := t.TempDir()
	reports := durableReports(1)
	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	if err := d.IngestBatch(reports, nil); err != nil {
		t.Fatal(err)
	}
	d.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	fi, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if stats.Replayed != 0 || stats.TornBytes == 0 {
		t.Fatalf("torn-tail-only recovery stats = %+v", stats)
	}
	if d2.NumClients() != 0 {
		t.Fatal("torn record was ingested")
	}
	// The torn record was never acked, so in production the device
	// redelivers it; here we just append it again and recover once more.
	if err := d2.IngestBatch(reports, nil); err != nil {
		t.Fatal(err)
	}
	want := volatileDigest(reports)
	d2.Close()
	d3, _ := mustOpenDurable(t, dir, DurableOptions{})
	defer d3.Close()
	if d3.Digest() != want {
		t.Fatal("redelivery after torn tail did not converge to control")
	}
}

// TestDurableCheckpointFallback corrupts the newest checkpoint and
// proves recovery falls back one generation and still reaches the
// exact control digest via WAL replay.
func TestDurableCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	reports := durableReports(60)
	want := volatileDigest(reports)

	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	if err := d.IngestBatch(reports[:20], nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // generation 1
		t.Fatal(err)
	}
	if err := d.IngestBatch(reports[20:40], nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // generation 2 (newest)
		t.Fatal(err)
	}
	if err := d.IngestBatch(reports[40:], nil); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Smash the newest checkpoint.
	ckpts, _ := filepath.Glob(filepath.Join(dir, checkpointGlob))
	if len(ckpts) != 2 {
		t.Fatalf("checkpoints on disk: %v", ckpts)
	}
	newest := ckpts[len(ckpts)-1]
	if err := os.WriteFile(newest, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if stats.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1 (stats %+v)", stats.Fallbacks, stats)
	}
	if got := d2.Digest(); got != want {
		t.Fatal("fallback recovery diverged from control")
	}
}

// TestDurableAllCheckpointsCorrupt: both generations bad — recovery
// starts from an empty store and replays the full WAL.
func TestDurableAllCheckpointsCorrupt(t *testing.T) {
	dir := t.TempDir()
	reports := durableReports(30)
	want := volatileDigest(reports)

	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	if err := d.IngestBatch(reports, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	ckpts, _ := filepath.Glob(filepath.Join(dir, checkpointGlob))
	for _, c := range ckpts {
		if err := os.WriteFile(c, []byte{0x00}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// WAL still holds everything below the (now useless) checkpoint?
	// Only if truncation kept it — KeepCheckpoints=2 truncates below the
	// OLDEST kept generation, and with a single checkpoint taken nothing
	// was truncated. Full replay must reconstruct the control state.
	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if stats.Fallbacks == 0 || stats.CheckpointLSN != 0 {
		t.Fatalf("stats = %+v, want exhausted fallbacks and no checkpoint", stats)
	}
	if d2.Digest() != want {
		t.Fatal("checkpoint-less replay diverged from control")
	}
}

// TestDurableIgnoresCheckpointTempHusk: a SIGKILL inside SaveFile
// leaves "checkpoint-XXX.gob.tmp-NNN" behind; recovery must neither
// mistake it for a generation (Sscanf tolerates trailing input) nor
// leave it on disk.
func TestDurableIgnoresCheckpointTempHusk(t *testing.T) {
	dir := t.TempDir()
	reports := durableReports(20)
	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	if err := d.IngestBatch(reports, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	husk := filepath.Join(dir, checkpointName(9999)+".tmp-1234")
	if err := os.WriteFile(husk, []byte("partial snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if stats.Fallbacks != 0 {
		t.Fatalf("temp husk caused a fallback: %+v", stats)
	}
	if d2.Digest() != volatileDigest(reports) {
		t.Fatal("recovery diverged with husk present")
	}
	if _, err := os.Stat(husk); !os.IsNotExist(err) {
		t.Fatal("checkpoint temp husk not swept at recovery")
	}
}

func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")

	s := NewStore()
	s.Ingest(durableReports(5)[0])
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// First write: file exists, no temp residue.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory after SaveFile: %v", ents)
	}

	// Overwrite with different content; a failure mid-write must leave
	// the original intact, which atomic rename guarantees — here we just
	// verify the happy-path replacement is complete and loadable.
	s.Ingest(durableReports(10)[9])
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.Digest() != s.Digest() {
		t.Fatal("reloaded snapshot digest mismatch")
	}
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}

	// Unwritable directory: error out, and do not clobber the existing
	// snapshot elsewhere.
	if err := s.SaveFile(filepath.Join(dir, "no-such-subdir", "x.gob")); err == nil {
		t.Fatal("SaveFile into missing directory succeeded")
	}
}
