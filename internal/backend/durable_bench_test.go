package backend

import (
	"testing"
	"time"

	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// The durability tax: BenchmarkDurableIngest measures a poll-sized
// batch (16 reports) through the volatile store and through the
// durable store under each fsync policy. The wire bytes are pre-built,
// as on the real harvest path, so the delta is pure WAL cost: frame
// building, one write(2) per batch, and whatever fsync the policy
// demands. EXPERIMENTS.md records the numbers; the budget for the
// default interval policy is <10% over volatile.

const (
	benchBatches   = 512
	benchBatchSize = 16
	benchSerials   = 64
)

// buildEra materializes one era of distinct (serial, seqno) batches.
// Re-running with era+1 continues every serial's seqno sequence, so
// the watermark dedup never short-circuits the ingest being measured.
func buildEra(era int) ([][]*telemetry.Report, [][][]byte) {
	perSerial := benchBatches * benchBatchSize / benchSerials
	reports := make([][]*telemetry.Report, benchBatches)
	raws := make([][][]byte, benchBatches)
	k := 0
	for bi := range reports {
		reports[bi] = make([]*telemetry.Report, benchBatchSize)
		raws[bi] = make([][]byte, benchBatchSize)
		for j := range reports[bi] {
			r := fullReport(k%benchSerials, uint64(era*perSerial+k/benchSerials+1))
			reports[bi][j] = r
			raws[bi][j] = r.Marshal()
			k++
		}
	}
	return reports, raws
}

func BenchmarkDurableIngest(b *testing.B) {
	b.Run("volatile", func(b *testing.B) {
		s := NewStore()
		era := 0
		reports, _ := buildEra(era)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := i % benchBatches
			if idx == 0 && i > 0 {
				b.StopTimer()
				era++
				reports, _ = buildEra(era)
				b.StartTimer()
			}
			for _, r := range reports[idx] {
				s.Ingest(r)
			}
		}
	})

	for _, pol := range []wal.Policy{wal.PolicyOff, wal.PolicyInterval, wal.PolicyAlways} {
		b.Run("wal-"+pol.String(), func(b *testing.B) {
			dir := b.TempDir()
			d, _, err := OpenDurable(dir, DurableOptions{WAL: wal.Options{
				Policy:   pol,
				Interval: 100 * time.Millisecond,
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			era := 0
			reports, raws := buildEra(era)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := i % benchBatches
				if idx == 0 && i > 0 {
					b.StopTimer()
					era++
					reports, raws = buildEra(era)
					b.StartTimer()
				}
				if err := d.IngestBatch(reports[idx], raws[idx]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDurableReplay times recovery: OpenDurable over a WAL built
// once, off the clock, with no checkpoint, so every record replays.
// The v1 arm logs one record per report; the v2 arm logs one record
// per 64-report batch. Both hold the same 2,048 reports (16 APs ×
// consecutive benchReports). ns/record is the wall time of one replay
// divided by its record count.
func BenchmarkDurableReplay(b *testing.B) {
	const aps, perAP, batch = 16, 128, 64
	reports := make([]*telemetry.Report, 0, aps*perAP)
	for seq := uint64(1); seq <= perAP; seq++ {
		for ap := 0; ap < aps; ap++ {
			reports = append(reports, benchReport(ap, seq))
		}
	}
	opts := DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff}}
	for _, arm := range []struct {
		name    string
		records int
		write   func(*DurableStore) error
	}{
		{"v1", len(reports), func(d *DurableStore) error {
			for i := 0; i < len(reports); i += benchBatchSize {
				if err := d.IngestBatch(reports[i:i+benchBatchSize], nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"v2", len(reports) / batch, func(d *DurableStore) error {
			for i := 0; i < len(reports); i += batch {
				be := telemetry.NewBatchEncoder(0)
				for _, r := range reports[i : i+batch] {
					be.Add(r)
				}
				if err := d.IngestBatchFrame(reports[i:i+batch], be.Finish(0, 0, nil)); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			dir := b.TempDir()
			d, _, err := OpenDurable(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := arm.write(d); err != nil {
				b.Fatal(err)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, stats, err := OpenDurable(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Replayed != arm.records || stats.BadRecords != 0 {
					b.Fatalf("recovery stats = %+v, want %d records replayed", stats, arm.records)
				}
				d.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*arm.records), "ns/record")
		})
	}
}
