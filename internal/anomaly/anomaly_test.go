package anomaly

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"wlanscale/internal/rng"
)

func TestNeighborTableOOM(t *testing.T) {
	// A 256 KB budget at 512 B/entry holds 512 neighbors; the
	// skyscraper AP hears thousands.
	tab := NewNeighborTable(256)
	var oom *ErrOOM
	for i := uint64(0); i < 10000; i++ {
		if err := tab.Observe(i); err != nil {
			if !errors.As(err, &oom) {
				t.Fatalf("unexpected error type %T", err)
			}
			break
		}
	}
	if oom == nil {
		t.Fatal("table never OOMed")
	}
	if oom.Entries < 500 || oom.Entries > 520 {
		t.Errorf("OOM at %d entries, want ~512", oom.Entries)
	}
	if !strings.Contains(oom.Error(), "OOM") {
		t.Errorf("error text: %v", oom)
	}
}

func TestNeighborTableDuplicatesFree(t *testing.T) {
	tab := NewNeighborTable(256)
	for i := 0; i < 100000; i++ {
		if err := tab.Observe(42); err != nil {
			t.Fatalf("duplicate observations OOMed: %v", err)
		}
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestRebootLoops(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 5; i++ {
		d.RecordCrash(CrashReport{Serial: "Q2XX-BUS", Kind: CrashOOM, Firmware: "r24.7", NeighborCount: 3200})
	}
	d.RecordCrash(CrashReport{Serial: "Q2XX-OK", Kind: CrashWatchdog, Firmware: "r24.7"})
	loops := d.RebootLoops(3)
	if len(loops) != 1 || loops[0] != "Q2XX-BUS" {
		t.Errorf("reboot loops = %v", loops)
	}
}

func TestNeighborOutliersFindsSkyscraper(t *testing.T) {
	d := NewDetector()
	root := rng.New(1)
	// A normal fleet at ~55 neighbors...
	for i := 0; i < 500; i++ {
		d.RecordNeighborCount(serialN(i), 40+root.IntN(30))
	}
	// ...plus Manhattan and a bus.
	d.RecordNeighborCount("Q2XX-MANHATTAN", 2800)
	d.RecordNeighborCount("Q2XX-BUS", 1400)
	out := d.NeighborOutliers(8)
	if len(out) != 2 {
		t.Fatalf("outliers = %+v", out)
	}
	if out[0].Serial != "Q2XX-MANHATTAN" || out[1].Serial != "Q2XX-BUS" {
		t.Errorf("outlier order = %v, %v", out[0].Serial, out[1].Serial)
	}
	if out[0].Sigma < 50 {
		t.Errorf("skyscraper sigma = %.1f; should be extreme", out[0].Sigma)
	}
}

func TestNeighborOutliersRobustToMass(t *testing.T) {
	// Even if 20% of the fleet is anomalous, the MAD-based threshold
	// still flags them (a mean/stddev threshold would be masked).
	d := NewDetector()
	root := rng.New(2)
	for i := 0; i < 400; i++ {
		d.RecordNeighborCount(serialN(i), 40+root.IntN(30))
	}
	for i := 0; i < 100; i++ {
		d.RecordNeighborCount(serialN(10000+i), 2000+root.IntN(500))
	}
	out := d.NeighborOutliers(8)
	if len(out) != 100 {
		t.Errorf("outliers = %d, want 100", len(out))
	}
}

func TestNeighborOutliersSmallFleet(t *testing.T) {
	d := NewDetector()
	d.RecordNeighborCount("a", 1)
	if d.NeighborOutliers(3) != nil {
		t.Error("tiny fleet should return nil")
	}
}

func TestDetectorConcurrent(t *testing.T) {
	d := NewDetector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.RecordCrash(CrashReport{Serial: serialN(g), Kind: CrashOOM})
				d.RecordNeighborCount(serialN(g*100+i), 50)
			}
		}(g)
	}
	wg.Wait()
	if len(d.RebootLoops(100)) != 8 {
		t.Errorf("loops = %v", d.RebootLoops(100))
	}
}

func TestCrashKindString(t *testing.T) {
	if CrashOOM.String() != "oom" || CrashPanic.String() != "panic" || CrashWatchdog.String() != "watchdog" {
		t.Error("kind names wrong")
	}
}

func serialN(i int) string {
	return "Q2XX-" + string(rune('A'+i%26)) + string(rune('A'+(i/26)%26)) + string(rune('A'+(i/676)%26))
}

func BenchmarkNeighborOutliers(b *testing.B) {
	d := NewDetector()
	root := rng.New(1)
	for i := 0; i < 10000; i++ {
		d.RecordNeighborCount(serialN(i)+string(rune('0'+i%10)), 40+root.IntN(30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NeighborOutliers(8)
	}
}

func TestOOMCrashReport(t *testing.T) {
	nt := NewNeighborTable(1) // 1 KB budget: two 512-byte entries fill it
	var oom *ErrOOM
	var bssid uint64
	for bssid = 1; bssid < 100; bssid++ {
		if err := nt.Observe(bssid); err != nil {
			if !errors.As(err, &oom) {
				t.Fatalf("Observe returned %T, want *ErrOOM", err)
			}
			break
		}
	}
	if oom == nil {
		t.Fatal("table never exhausted its budget")
	}
	crash := nt.OOMCrash("Q2XX-OOM", 3600, "r24.7", 0x80401a2c)
	if crash.Kind != CrashOOM || crash.Serial != "Q2XX-OOM" {
		t.Errorf("crash = %+v", crash)
	}
	if crash.NeighborCount != nt.Len() || crash.NeighborCount != oom.Entries {
		t.Errorf("crash neighbor count %d, table %d, oom %d", crash.NeighborCount, nt.Len(), oom.Entries)
	}
	wire := crash.ToTelemetry()
	back := FromTelemetry("Q2XX-OOM", wire)
	if back != crash {
		t.Errorf("wire round trip: %+v vs %+v", back, crash)
	}
}
