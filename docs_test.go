package wlanscale

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wlanscale/internal/core"
)

// TestDocsCiteLiveTests keeps the prose gates honest: every Test*,
// Fuzz* or Benchmark* name the operator and design docs cite as proof
// of a claim must exist as a func in some Go file of the tree, so a
// renamed or folded test cannot leave a doc pointing at nothing.
func TestDocsCiteLiveTests(t *testing.T) {
	funcs := make(map[string]bool)
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	notes, _ := filepath.Glob(".*/skills/*/SKILL.md") // checked-in build notes; the pattern is valid
	for _, doc := range append([]string{"README.md", "DESIGN.md", "OPERATIONS.md", "EXPERIMENTS.md"}, notes...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(text), -1) {
			if !funcs[name] {
				t.Errorf("%s cites %s, which no Go file declares", doc, name)
			}
		}
	}
}

// TestDesignIndexesEveryExperiment keeps DESIGN.md §3's per-experiment
// index in step with core.Experiments: every entry has exactly one row,
// named in the row's last column, and no row names anything else.
func TestDesignIndexesEveryExperiment(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| (?:Table|Fig\\.) \\d+ \\|.*\\| `(\\w+)` \\|$")
	rows := make(map[string]int)
	for _, m := range row.FindAllStringSubmatch(string(text), -1) {
		rows[m[1]]++
	}
	for _, e := range core.Experiments {
		if rows[e.Name] != 1 {
			t.Errorf("DESIGN.md §3 has %d rows for experiment %s, want 1", rows[e.Name], e.Name)
		}
		delete(rows, e.Name)
	}
	for name := range rows {
		t.Errorf("DESIGN.md §3 indexes %s, which core.Experiments does not list", name)
	}
}
