package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"wlanscale/internal/telemetry"
)

// conformanceSeeds are the fixture seeds: 2026 matches the golden and
// EXPERIMENTS.md bench seed, the rest guard against a change that
// happens to cancel out at one seed.
var conformanceSeeds = []uint64{2026, 2027, 2028, 2029, 2030}

// TestPaperConformance pins the full paper surface — every entry of
// Experiments, Tables 1-7 and Figures 1-11, rendered exactly as
// merakireport prints it — against checked-in goldens for five seeds.
// This is the repo's conformance suite: any drift anywhere in the
// simulate → harvest → aggregate → render pipeline fails with a line
// diff naming exactly which rows of which figure moved. Accept
// intentional changes with:
//
//	go test ./internal/core -run TestPaperConformance -update
func TestPaperConformance(t *testing.T) {
	for _, seed := range conformanceSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := filepath.Join("testdata", "conformance", fmt.Sprintf("seed%d", seed))
			checkGoldens(t, dir, renderExperiments(t, smallConfig(seed), nil))
		})
	}
}

// TestUsageEpochWireEquivalence pins the offline pipeline's wire knob
// at the study level: RunUsageEpoch must land the identical store
// digest whether Config.WireVersion routes every report through v1
// per-report marshal or v2 delta-coded batches. Together with the
// conformance goldens (rendered on the v1 path) this proves the v2
// codec can never move a table.
func TestUsageEpochWireEquivalence(t *testing.T) {
	digest := func(wire int) string {
		cfg := smallConfig(2026)
		cfg.WireVersion = wire
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		u, err := s.RunUsageEpoch(s.Fleet15)
		if err != nil {
			t.Fatal(err)
		}
		return u.Store.Digest()
	}
	v1 := digest(int(telemetry.WireV1))
	v2 := digest(int(telemetry.WireV2))
	if v1 != v2 {
		t.Fatalf("usage epoch digest differs across wire versions:\nv1: %s\nv2: %s", v1, v2)
	}
}
