package backend

import (
	"bytes"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/obs"
	"wlanscale/internal/telemetry"
)

// TestStoreEnableObs checks the counters EnableObs folds into a
// registry: totals and the snapshot-encode histogram.
func TestStoreEnableObs(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	s.EnableObs(reg)

	for i := 0; i < 10; i++ {
		s.Ingest(&telemetry.Report{
			Serial: "Q2AA-000" + string(rune('0'+i)),
			SeqNo:  1,
			Clients: []telemetry.ClientRecord{{
				MAC: dot11.MAC{0xac, 0, 0, 0, 0, byte(i)}, Band: dot11.Band24,
			}},
		})
	}
	// A duplicate: same serial, same seq.
	s.Ingest(&telemetry.Report{Serial: "Q2AA-0000", SeqNo: 1})

	read := func(name string) int64 {
		for _, sm := range reg.Snapshot() {
			if sm.Name == name {
				return sm.Value
			}
		}
		t.Fatalf("metric %q not in registry", name)
		return 0
	}
	if got := read("store.ingests"); got != 10 {
		t.Fatalf("store.ingests = %d, want 10", got)
	}
	if got := read("store.dupes"); got != 1 {
		t.Fatalf("store.dupes = %d, want 1", got)
	}
	if got := read("store.clients"); got != 10 {
		t.Fatalf("store.clients = %d, want 10", got)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("store.save_us", nil).Count(); got != 1 {
		t.Fatalf("store.save_us count = %d, want 1", got)
	}

	// Load resets the ingest totals.
	if err := s.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := read("store.ingests"); got != 0 {
		t.Fatalf("store.ingests after Load = %d, want 0", got)
	}
}
