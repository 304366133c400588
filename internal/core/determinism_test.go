package core

import (
	"testing"

	"wlanscale/internal/meshprobe"
)

// smallConfig is a fast configuration for determinism checks.
func smallConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		UsageNetworks: 12,
		ClientCap:     60,
		LinkNetworks:  15,
		LinkWindows:   10,
		Sampling:      meshprobe.BinomialApprox,
		UtilAPs:       20,
		UtilWindows:   6,
		ScanAPs:       15,
	}
}

// renderExperiments regenerates, on a fresh study at cfg, every
// experiment keep accepts (all of them when keep is nil), keyed by name.
func renderExperiments(t *testing.T, cfg Config, keep func(Experiment) bool) map[string]string {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &Run{Study: s}
	out := make(map[string]string)
	for _, e := range Experiments {
		if keep != nil && !keep(e) {
			continue
		}
		if out[e.Name], err = r.Render(e); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	return out
}

// usageStudy keeps the experiments the usage study alone regenerates:
// the fleets and the two usage epochs, no scans or link/utilization runs.
func usageStudy(e Experiment) bool { return e.input <= usageInput }

// TestStudyDeterministic verifies that two studies built from the same
// seed produce byte-identical renders for every experiment — the
// property that makes EXPERIMENTS.md numbers stable. The second study
// renders the experiments in reverse order, so what an experiment
// prints does not depend on which others ran before it: a
// merakireport -only subset prints what the full report prints.
func TestStudyDeterministic(t *testing.T) {
	a := renderExperiments(t, smallConfig(99), nil)
	s, err := NewStudy(smallConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	r := &Run{Study: s}
	for i := len(Experiments) - 1; i >= 0; i-- {
		e := Experiments[i]
		got, err := r.Render(e)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got != a[e.Name] {
			t.Errorf("%s differs between identical seeds rendered in opposite orders", e.Name)
		}
	}
}

// TestStudySeedSensitivity verifies different seeds actually produce
// different universes (the determinism above is not a constant).
func TestStudySeedSensitivity(t *testing.T) {
	mk := func(seed uint64) string {
		s, err := NewStudy(smallConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		now, err := s.RunUsageEpoch(s.Fleet15)
		if err != nil {
			t.Fatal(err)
		}
		before, err := s.RunUsageEpoch(s.Fleet14)
		if err != nil {
			t.Fatal(err)
		}
		return Table3UsageByOS(now, before).Render()
	}
	if mk(1) == mk(2) {
		t.Error("different seeds produced identical Table 3")
	}
}

// TestUsageEpochRerunStable verifies re-running the same epoch on a
// fresh study gives the same store contents (the epochs are generated,
// not accumulated).
func TestUsageEpochRerunStable(t *testing.T) {
	s1, err := NewStudy(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	u1, err := s1.RunUsageEpoch(s1.Fleet15)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStudy(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	u2, err := s2.RunUsageEpoch(s2.Fleet15)
	if err != nil {
		t.Fatal(err)
	}
	if u1.Store.NumClients() != u2.Store.NumClients() {
		t.Fatalf("client counts differ: %d vs %d", u1.Store.NumClients(), u2.Store.NumClients())
	}
	c1, c2 := u1.Store.Clients(), u2.Store.Clients()
	for i := range c1 {
		if c1[i].MAC != c2[i].MAC || c1[i].Total() != c2[i].Total() {
			t.Fatalf("client %d differs: %v/%d vs %v/%d", i, c1[i].MAC, c1[i].Total(), c2[i].MAC, c2[i].Total())
		}
	}
}
