package backend

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
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

func TestDurableEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	d, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d.Close()
	if stats.CheckpointLSN != 0 || stats.Replayed != 0 || stats.Fallbacks != 0 {
		t.Fatalf("fresh dir recovery stats = %+v, want all zero", stats)
	}
	if d.NumClients() != 0 {
		t.Fatal("fresh durable store not empty")
	}
}

func TestDurableReplayMatchesControl(t *testing.T) {
	dir := t.TempDir()
	reports := durableReports(90)
	want := volatileDigest(reports)

	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	// Mix single and batched ingests, checkpoint midway so recovery
	// exercises checkpoint + replay together.
	for i := 0; i < len(reports); i += 10 {
		if err := d.IngestBatch(reports[i:i+10], nil); err != nil {
			t.Fatal(err)
		}
		if i == 40 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d.Digest() != want {
		t.Fatal("live durable digest diverged from control")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if stats.CheckpointLSN == 0 {
		t.Fatalf("recovery ignored the checkpoint: %+v", stats)
	}
	if stats.Replayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", stats)
	}
	if stats.BadRecords != 0 {
		t.Fatalf("recovery hit undecodable records: %+v", stats)
	}
	if got := d2.Digest(); got != want {
		t.Fatalf("recovered digest != control\n got %s\nwant %s", got, want)
	}
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

// TestDurableCheckpointNewerThanWAL: checkpoint covers everything and
// the WAL has been truncated past its end — replay must be a no-op,
// not an error.
func TestDurableCheckpointNewerThanWAL(t *testing.T) {
	dir := t.TempDir()
	reports := durableReports(30)
	want := volatileDigest(reports)

	d, _ := mustOpenDurable(t, dir, DurableOptions{KeepCheckpoints: 1})
	if err := d.IngestBatch(reports, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, stats := mustOpenDurable(t, dir, DurableOptions{KeepCheckpoints: 1})
	defer d2.Close()
	if stats.Replayed != 0 {
		t.Fatalf("replayed %d records the checkpoint already covers", stats.Replayed)
	}
	if d2.Digest() != want {
		t.Fatal("checkpoint-only recovery diverged from control")
	}
}

// TestDurableReplayIdempotent: recover, recover again without any new
// writes — digests identical, no double-counting.
func TestDurableReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	reports := durableReports(45)
	want := volatileDigest(reports)

	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	if err := d.IngestBatch(reports[:20], nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.IngestBatch(reports[20:], nil); err != nil {
		t.Fatal(err)
	}
	d.Close()

	for pass := 1; pass <= 3; pass++ {
		d2, _ := mustOpenDurable(t, dir, DurableOptions{})
		if got := d2.Digest(); got != want {
			t.Fatalf("pass %d digest diverged", pass)
		}
		d2.Close() // no checkpoint, no writes: next pass replays the same WAL
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

// TestDurableCrashPlanSeeds is the in-process half of the kill
// harness: a seeded tear strikes a random append, the batch fails (so
// in production it would not be acked), and recovery yields exactly
// the acked prefix — compare against a control fed the same prefix.
func TestDurableCrashPlanSeeds(t *testing.T) {
	const horizon = 40
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			reports := durableReports(horizon)
			plan := wal.NewCrashPlan(seed, horizon)
			d, _ := mustOpenDurable(t, dir, DurableOptions{WAL: wal.Options{Crash: plan}})

			acked := 0
			for _, r := range reports {
				if err := d.IngestBatch([]*telemetry.Report{r}, nil); err != nil {
					break // crashed mid-append: this report was NOT acked
				}
				acked++
			}
			if fired, at := plan.Fired(); !fired || at != acked {
				t.Fatalf("plan fired=%t at=%d, acked=%d", fired, at, acked)
			}
			// Degraded after the write failure: refuses further acks.
			if !d.Degraded() {
				t.Fatal("store not degraded after WAL crash")
			}
			if err := d.IngestBatch(reports[acked:acked+1], nil); err == nil {
				t.Fatal("degraded store accepted a batch")
			}

			d2, _ := mustOpenDurable(t, dir, DurableOptions{})
			defer d2.Close()
			if got, want := d2.Digest(), volatileDigest(reports[:acked]); got != want {
				t.Fatalf("recovered digest != acked-prefix control (acked=%d)", acked)
			}
		})
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

func TestDigestStability(t *testing.T) {
	reports := durableReports(50)
	want := volatileDigest(reports)

	// Cross-serial interleaving independence: ingest grouped by serial
	// (per-serial seqno order preserved — the watermark dedup requires
	// it) with each report redelivered once. Same end state.
	s := NewStore()
	for ap := 0; ap < 3; ap++ {
		serial := fmt.Sprintf("AP-%d", ap)
		for _, r := range reports {
			if r.Serial != serial {
				continue
			}
			s.Ingest(r)
			s.Ingest(r) // redelivery, absorbed by seqno watermark
		}
	}
	if s.Digest() != want {
		t.Fatal("digest not stable under interleaving/redelivery")
	}
}

// TestIngestBatchFrameRecovers drives the v2 durable ingest in
// process: whole batch payloads go to the WAL through IngestBatchFrame,
// the store is abandoned without a checkpoint, and replay — which
// decodes every record through DecodeBatchFrame — must rebuild the
// control digest. A CRC-valid record that claims to be a batch but
// does not decode counts as bad and changes nothing.
func TestIngestBatchFrameRecovers(t *testing.T) {
	const frames, perFrame = 4, 16
	dir := t.TempDir()
	var reports []*telemetry.Report
	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	for f := 0; f < frames; f++ {
		be := telemetry.NewBatchEncoder(0)
		for i := f * perFrame; i < (f+1)*perFrame; i++ {
			r := benchReport(i%4, uint64(i/4+1))
			reports = append(reports, r)
			be.Add(r)
		}
		payload := be.Finish(0, 0, nil)
		bf, err := telemetry.DecodeBatchFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.IngestBatchFrame(bf.Reports, payload); err != nil {
			t.Fatal(err)
		}
	}
	want := volatileDigest(reports)
	if d.Digest() != want {
		t.Fatal("live durable digest diverged from control")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	if stats.Replayed != frames || stats.BadRecords != 0 {
		t.Fatalf("recovery stats = %+v, want %d replayed and no bad records", stats, frames)
	}
	if got := d2.Digest(); got != want {
		t.Fatalf("recovered digest != control\n got %s\nwant %s", got, want)
	}
	if _, err := d2.WAL().Append([]byte{telemetry.WireV2, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d3.Close()
	if stats.BadRecords != 1 {
		t.Fatalf("recovery stats = %+v, want the undecodable batch counted bad", stats)
	}
	if got := d3.Digest(); got != want {
		t.Fatalf("an undecodable batch record changed the digest\n got %s\nwant %s", got, want)
	}
}
