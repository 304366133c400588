package core

import (
	"fmt"
	"reflect"
	"testing"
)

// parallelConfig is small enough that a workers=1 and a workers=8 run
// per seed stay fast under the race detector.
func parallelConfig(seed uint64) Config {
	cfg := smallConfig(seed)
	cfg.UsageNetworks = 10
	cfg.ClientCap = 50
	return cfg
}

// storeDigest flattens a usage store into a comparable, fully sorted
// form covering every field the tables and figures read.
func storeDigest(t *testing.T, u *UsageEpoch) []string {
	t.Helper()
	var out []string
	ing, dup := u.Store.Stats()
	out = append(out, fmt.Sprintf("ingests=%d dupes=%d clients=%d", ing, dup, u.Store.NumClients()))
	for _, c := range u.Store.Clients() {
		apps := make([]string, 0, len(c.Apps))
		for _, rec := range c.Apps {
			apps = append(apps, fmt.Sprintf("%s:%d/%d/%d", rec.App, rec.UpBytes, rec.DownBytes, rec.Flows))
		}
		fps := make([]string, 0, len(c.DHCPFingerprints))
		for _, fp := range c.DHCPFingerprints {
			fps = append(fps, fmt.Sprintf("%x", fp))
		}
		out = append(out, fmt.Sprintf("mac=%v band=%v rssi=%d caps=%+v os=%v aps=%v uas=%v fps=%v apps=%v",
			c.MAC, c.Band, c.RSSIdB, c.Caps, c.OS(), c.APs, c.UserAgents, fps, apps))
	}
	for _, serial := range u.Store.RadioSerials() {
		out = append(out, fmt.Sprintf("radio %s %+v", serial, u.Store.RadioSeries(serial)))
	}
	return out
}

// runEpochAt builds a fresh study (fleets carry mutable AP state, so
// every run needs its own) and executes the usage epoch with the given
// worker count.
func runEpochAt(t *testing.T, seed uint64, workers int) (*Study, *UsageEpoch) {
	t.Helper()
	s, err := NewStudy(parallelConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.RunUsageEpochWorkers(s.Fleet15, workers)
	if err != nil {
		t.Fatal(err)
	}
	return s, u
}

// TestRunUsageEpochWorkerEquivalence is the determinism contract of the
// parallel pipeline: for a spread of seeds, a serial run and an
// 8-worker run must produce identical UsageEpoch aggregates, down to
// every per-client field and every radio series.
func TestRunUsageEpochWorkerEquivalence(t *testing.T) {
	seeds := []uint64{1, 2, 3, 7, 42, 99, 2014, 2015, 2026, 0xd1ce}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, serial := runEpochAt(t, seed, 1)
			_, parallel := runEpochAt(t, seed, 8)
			if serial.Epoch != parallel.Epoch || serial.Scale != parallel.Scale {
				t.Fatalf("epoch/scale differ: %v/%v vs %v/%v",
					serial.Epoch, serial.Scale, parallel.Epoch, parallel.Scale)
			}
			a, b := storeDigest(t, serial), storeDigest(t, parallel)
			if len(a) != len(b) {
				t.Fatalf("digest lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=1 and workers=8 diverge at digest line %d:\n  serial:   %s\n  parallel: %s",
						i, a[i], b[i])
				}
			}
		})
	}
}

// TestRunUsageEpochRenderEquivalence checks the contract end to end:
// the rendered tables and figure — what EXPERIMENTS.md actually records
// — must be byte-identical across worker counts, including the merge
// into Table 3/5/6's year-over-year joins.
func TestRunUsageEpochRenderEquivalence(t *testing.T) {
	render := func(workers int) map[string]string {
		cfg := parallelConfig(77)
		cfg.Workers = workers
		return renderExperiments(t, cfg, func(e Experiment) bool { return e.input == usageInput })
	}
	serial := render(1)
	for _, workers := range []int{3, 8} {
		parallel := render(workers)
		if !reflect.DeepEqual(serial, parallel) {
			for name := range serial {
				if serial[name] != parallel[name] {
					t.Errorf("workers=%d: %s differs from serial render", workers, name)
				}
			}
		}
	}
}

// TestRunUsageEpochWorkersMergeCount verifies the partial-merge step
// neither drops nor double-counts reports: the merged store's ingest
// count equals the fleet's AP count (one report per AP).
func TestRunUsageEpochWorkersMergeCount(t *testing.T) {
	s, u := runEpochAt(t, 11, 4)
	ing, dup := u.Store.Stats()
	if want := s.Fleet15.TotalAPs(); ing != want || dup != 0 {
		t.Errorf("ingests/dupes = %d/%d, want %d/0", ing, dup, want)
	}
	var clients int
	for _, n := range s.Fleet15.Networks {
		clients += n.NumClients
	}
	if got := u.Store.NumClients(); got != clients {
		t.Errorf("NumClients = %d, want %d (serials are fleet-unique)", got, clients)
	}
}

// TestStoreMergeDisjointEqualsIngest cross-checks Merge against direct
// ingestion: splitting a report stream across partial stores and
// merging must equal ingesting everything into one store.
func TestStoreMergeDisjointEqualsIngest(t *testing.T) {
	s, err := NewStudy(parallelConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.RunUsageEpochWorkers(s.Fleet15, 1)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := NewStudy(parallelConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := s2.RunUsageEpochWorkers(s2.Fleet15, 5)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Store.NumClients() != merged.Store.NumClients() {
		t.Fatalf("client counts differ: %d vs %d", direct.Store.NumClients(), merged.Store.NumClients())
	}
	dc, mc := direct.Store.Clients(), merged.Store.Clients()
	for i := range dc {
		if dc[i].MAC != mc[i].MAC || dc[i].Total() != mc[i].Total() {
			t.Fatalf("client %d differs: %v/%d vs %v/%d",
				i, dc[i].MAC, dc[i].Total(), mc[i].MAC, mc[i].Total())
		}
	}
}
