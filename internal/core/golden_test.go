package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/golden snapshots")

// goldenConfig pins the golden fixture: seed 2026 (the EXPERIMENTS.md
// bench seed) at a scale small enough to regenerate under -race on
// every CI run.
func goldenConfig() Config {
	cfg := smallConfig(2026)
	cfg.UsageNetworks = 24
	cfg.ClientCap = 150
	return cfg
}

// TestGoldenRenders pins the seed-2026 Render() output of every
// experiment the usage study alone regenerates (Tables 1-6 and
// Figure 1) against testdata/golden/, at a larger usage fleet than the
// conformance suite. Any behavioral drift in the simulation,
// classification, aggregation, or rendering path — however it is
// scheduled across workers — fails this test with a diff. To accept an
// intentional change:
//
//	go test ./internal/core -run TestGoldenRenders -update
func TestGoldenRenders(t *testing.T) {
	checkGoldens(t, filepath.Join("testdata", "golden"), renderExperiments(t, goldenConfig(), usageStudy))
}

// checkGoldens compares every render with dir/<name>.golden in its own
// subtest, or rewrites the files under -update. A golden file no render
// matches fails too, so a renamed or dropped experiment cannot leave a
// stale pin behind.
func checkGoldens(t *testing.T, dir string, renders map[string]string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range renders {
		name, got := name, got
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s:\n%s", name, path, diffLines(string(want), got))
			}
		})
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := renders[strings.TrimSuffix(filepath.Base(f), ".golden")]; !ok {
			t.Errorf("%s pins no experiment", f)
		}
	}
}

// diffLines renders a compact line diff for a drifted golden: every
// run of differing lines with its 1-based line numbers, capped so a
// wholesale rewrite does not flood the test log.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	var b strings.Builder
	shown := 0
	for i := 0; i < n && shown < 20; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "  line %d:\n    -%s\n    +%s\n", i+1, wl, gl)
		shown++
	}
	if shown == 20 {
		b.WriteString("  ... (diff truncated)\n")
	}
	return b.String()
}
